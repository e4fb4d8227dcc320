#include "multidev/sharded_cg.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/dslash_ref.hpp"
#include "dsan/check.hpp"
#include "lattice/io.hpp"
#include "tune/session.hpp"

namespace milc::multidev {

namespace {

/// Snapshot integrity checksum: the word-lane checksum over the field bytes,
/// the one the halo payload checksums use too.
std::uint64_t field_sum(const ColorField& f) { return io::checksum64(f.data(), f.bytes()); }

/// A consistent solver state: everything needed to replay the CG recursion
/// from iteration `iter`.  Snapshots live in host memory that is *not*
/// registered as a corruption target (checkpoint storage is assumed
/// ECC-clean / on stable storage), but each field still carries a byte
/// checksum so a torn restore is detected rather than trusted.
struct Snapshot {
  ColorField x, r, p;
  double rr = 0.0;
  int iter = 0;
  std::uint64_t sum_x = 0, sum_r = 0, sum_p = 0;
  bool valid = false;

  void take(const ColorField& x_, const ColorField& r_, const ColorField& p_, double rr_,
            int iter_) {
    x = x_;
    r = r_;
    p = p_;
    rr = rr_;
    iter = iter_;
    sum_x = field_sum(x);
    sum_r = field_sum(r);
    sum_p = field_sum(p);
    valid = true;
  }

  [[nodiscard]] bool intact() const {
    return valid && field_sum(x) == sum_x && field_sum(r) == sum_r && field_sum(p) == sum_p;
  }
};

/// ABFT: the seed of the fixed check vector; the acceptance tolerance
/// |<r,y> - <z,x>| <= tol * scale, scale grown with the contracted norms
/// (1e-8 rides above kernel-vs-reference summation roundoff while catching
/// any injected bit flip of the fields); recomputes per apply after the
/// first attempt.
constexpr std::uint64_t kAbftSeed = 0x5eed;
constexpr double kAbftRelTol = 1e-8;
constexpr int kMaxRecomputes = 2;
/// Reduced wire: iterations between forced exact-wire residual
/// replacements (docs/WIRE.md §5).
constexpr int kReliableInterval = 25;

faultsim::MemRegion region_of(const ColorField& f) {
  return {reinterpret_cast<std::uint64_t>(f.data()), f.bytes()};
}

}  // namespace

std::string ShardedCgResult::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "sharded-cg: %s%s in %d iters (rel %.3e true %.3e) | applies %d "
                "(recomputes %d, reliable %d) checkpoints %d restarts %d failovers %d | "
                "grid %s | faults %zu recovery %.1f us%s",
                cg.converged ? "converged" : "NOT converged",
                certified ? " (certified)" : "", cg.iterations, cg.relative_residual,
                cg.true_relative_residual, applies, recomputes, reliable_updates,
                checkpoints_taken, restarts, failovers_observed, final_grid.label().c_str(),
                faults.size(), recovery_us,
                cancelled ? " | CANCELLED" : (recovered_all ? "" : " | RECOVERY EXHAUSTED"));
  return buf;
}

ShardedCgSolver::ShardedCgSolver(const Coords& dims, const GaugeConfiguration& gauge,
                                 double mass, PartitionGrid grid, ShardedCgConfig cfg)
    : mass_(mass),
      grid_(grid),
      cfg_(std::move(cfg)),
      // Every apply overwrites the problems' b before reading it, so the
      // seed that draws it is immaterial.
      problem_o_(dims, gauge, /*seed=*/2024, Parity::Odd),
      problem_e_(dims, gauge, /*seed=*/2024, Parity::Even) {
  // Warm-start adoption (lookup-only; see the header).  The key matches
  // what MultiDeviceRunner::run_tuned records for the even-parity problem.
  if (tune::TuneSession* sess = tune::TuneSession::current(); sess != nullptr) {
    MultiDevRequest mreq;
    mreq.grid = grid_;
    mreq.req.strategy = cfg_.strategy;
    mreq.req.order = cfg_.order;
    mreq.req.local_size = cfg_.local_size;
    mreq.topo = cfg_.topo;
    mreq.wire = cfg_.wire;
    const tune::TuneEntry* hit = sess->lookup(runner_.tune_key(problem_e_, mreq));
    if (hit != nullptr && hit->local_size > 0) cfg_.local_size = hit->local_size;
  }
}

ShardedCgSolver::ShardedCgSolver(const Coords& dims, std::uint64_t gauge_seed, double mass,
                                 PartitionGrid grid, ShardedCgConfig cfg)
    : ShardedCgSolver(dims, GaugeConfiguration::random(LatticeGeom(dims), gauge_seed), mass,
                      grid, std::move(cfg)) {}

ShardedCgSolver::ShardedCgSolver(int L, std::uint64_t gauge_seed, double mass,
                                 PartitionGrid grid, ShardedCgConfig cfg)
    : ShardedCgSolver(Coords{L, L, L, L}, gauge_seed, mass, grid, std::move(cfg)) {}

bool ShardedCgSolver::run_dslash(DslashProblem& problem, ShardLayouts& layouts,
                                 ShardedCgResult* res, const WireFormat& wire, int iteration) {
  // One functional pipeline pass; the installed injector (if any) decides
  // whether it runs hardened and may fail over.
  MultiDevRequest mreq;
  mreq.grid = grid_;
  mreq.req.strategy = cfg_.strategy;
  mreq.req.order = cfg_.order;
  mreq.req.local_size = cfg_.local_size;
  mreq.topo = cfg_.topo;
  mreq.wire = wire;
  mreq.mode = minisycl::ExecMode::functional;
  mreq.rejoin = rejoin_;
  const MultiDevResult mres = runner_.run(problem, mreq, layouts);
  if (res != nullptr) {
    res->recovery_us += mres.recovery_us;
    *res += mres;  // the apply's elastic tally
    if (!mres.failovers.empty()) {
      res->failovers_observed += static_cast<int>(mres.failovers.size());
      for (const FailoverEvent& f : mres.failovers) {
        res->events.push_back({iteration, "failover", f.from.label() + " -> " +
                                                          f.to.label() + " (" + f.reason + ")"});
      }
    }
  }
  if (!mres.failovers.empty()) {
    // Adopt the surviving grid for every subsequent apply; the caller
    // restores the last snapshot and replays on it.
    grid_ = mres.final_grid;
    failover_seen_ = true;
  }
  // The grids this apply (or an earlier one) shrank away from, for the heal
  // consults of every later apply; a rejoin already popped its target.
  rejoin_ = mres.rejoin;
  return mres.recovered;
}

bool ShardedCgSolver::apply_raw(const ColorField& in, ColorField& out, ShardedCgResult* res,
                                const WireFormat& wire, int iteration) {
  // out = m^2 in - D_eo D_oe in, both hops through the sharded halo protocol.
  problem_o_.b() = in;
  if (!run_dslash(problem_o_, layouts_o_, res, wire, iteration)) return false;
  problem_e_.b() = problem_o_.c();
  if (!run_dslash(problem_e_, layouts_e_, res, wire, iteration)) return false;
  out = in;
  scale(mass_ * mass_, out);
  axpy(-1.0, problem_e_.c(), out);
  return true;
}

void ShardedCgSolver::apply_normal(const ColorField& in, ColorField& out) {
  (void)apply_raw(in, out, nullptr, cfg_.wire, 0);
}

void ShardedCgSolver::apply_reference(const ColorField& in, ColorField& out) const {
  ColorField tmp(problem_o_.geom(), Parity::Odd);
  dslash_reference(problem_o_.view(), problem_o_.neighbors(), in, tmp);
  ColorField deo(problem_e_.geom(), Parity::Even);
  dslash_reference(problem_e_.view(), problem_e_.neighbors(), tmp, deo);
  out = in;
  scale(mass_ * mass_, out);
  axpy(-1.0, deo, out);
}

ShardedCgResult ShardedCgSolver::solve(const ColorField& b, ColorField& x) {
  ShardedCgResult res;
  const double b2 = norm2(b);
  if (b2 == 0.0) {
    x.zero();
    res.cg.converged = true;
    res.final_grid = grid_;
    return res;
  }
  const LatticeGeom& g = geom();
  faultsim::Injector* inj = faultsim::Injector::current();
  dsan::Recorder* rec = dsan::Recorder::current();
  const std::size_t log_mark = inj != nullptr ? inj->log().size() : 0;
  failover_seen_ = false;

  ColorField r(g, Parity::Even), Ap(g, Parity::Even);
  ColorField pvec(g, Parity::Even);
  double rr = 0.0;
  int it = 0;

  // Silent-corruption surface: the live solver vectors plus the staging
  // fields the applies stream through.  Snapshots and the ABFT anchors stay
  // unregistered — that is the trust boundary of the scheme.
  if (inj != nullptr) {
    inj->set_corruption_targets({region_of(x), region_of(r), region_of(pvec),
                                 region_of(Ap), region_of(problem_o_.b()),
                                 region_of(problem_o_.c()), region_of(problem_e_.b()),
                                 region_of(problem_e_.c())});
  }

  // ABFT anchor: z = A_ref r_abft via the serial reference, computed once.
  // A is Hermitian, so every accepted apply y = A v must satisfy
  // <r_abft, y> == <z, v> up to summation roundoff.
  ColorField r_abft(g, Parity::Even), z_abft;
  r_abft.fill_random(kAbftSeed);
  apply_reference(r_abft, z_abft);
  const double abft_norm_r = norm2(r_abft);
  const double abft_norm_z = norm2(z_abft);

  // One guarded operator application: recompute (bounded) until the ABFT
  // identity holds.  Returns false on an unrecoverable apply or a persistent
  // mismatch — the solve loop then restores a snapshot.  `exact` forces the
  // fp64 wire regardless of the configured format (reliable updates and the
  // final certification); the ABFT tolerance floor tracks the wire actually
  // used, since a reduced wire legitimately perturbs the identity.
  auto apply_checked = [&](const ColorField& in, ColorField& out,
                           bool exact = false) -> bool {
    const WireFormat wire = exact ? WireFormat{} : cfg_.wire;
    const double rel_tol = std::max(kAbftRelTol, wire_error_floor(wire.spinor));
    for (int attempt = 0;; ++attempt) {
      if (!apply_raw(in, out, &res, wire, it)) return false;
      ++res.applies;
      const dcomplex lhs = dot(r_abft, out);
      const dcomplex rhs = dot(z_abft, in);
      const double err = std::hypot(lhs.re - rhs.re, lhs.im - rhs.im);
      const double scale_lr = std::sqrt(abft_norm_r * norm2(out));
      const double scale_zx = std::sqrt(abft_norm_z * norm2(in));
      const double tol = rel_tol * (1.0 + scale_lr + scale_zx);
      if (err <= tol) return true;
      if (attempt >= kMaxRecomputes) return false;
      ++res.recomputes;
      char detail[128];
      std::snprintf(detail, sizeof detail, "abft |<r,y>-<z,x>| = %.3e > %.3e", err, tol);
      res.events.push_back({it, "recompute", detail});
    }
  };

  // ||b - A v||^2 through the guarded apply (which leaves A v in Ap) — the
  // checkpoint audits and the final certificate; nothing when it fails.
  auto true_residual2 = [&](const ColorField& v, bool exact = false) -> std::optional<double> {
    if (!apply_checked(v, Ap, exact)) return std::nullopt;
    ColorField tr = b;
    axpy(-1.0, Ap, tr);
    return norm2(tr);
  };

  const double target = cfg_.cg.rel_tol * cfg_.cg.rel_tol * b2;
  // Checkpoint-audit slack: on a reduced wire the recursion residual and a
  // recomputed residual legitimately drift apart by the wire's rounding
  // floor relative to ||b|| — once the recursion residual sinks below that
  // floor, only drift beyond the floor itself indicates corruption.  Exact
  // wire: the floor is 0 and the audit is unchanged.
  const double audit_slack =
      (cfg_.cg.rel_tol + wire_error_floor(cfg_.wire.spinor)) * std::sqrt(b2);

  // `snap` is the durable snapshot restores land on.  Async checkpointing
  // stages states off the critical path in `staged` and promotes one into
  // `snap` only after its deferred audit passes.
  Snapshot snap, staged;
  bool fatal = false;
  // Iteration the last audit failure restored to (see `audit`).
  int last_audit_restore_iter = -1;

  // (Re)initialise the recursion from the current x: r = b - A x, p = r.
  // The apply goes through the exact fp64 wire — on the default format
  // that is bit-for-bit the configured wire; on a reduced format it makes
  // every (re)built residual a *true* residual, which is what the
  // reliable-update exactness argument rests on (docs/WIRE.md §5).
  auto init_state = [&]() -> bool {
    if (!apply_checked(x, Ap, /*exact=*/true)) return false;
    r = b;
    axpy(-1.0, Ap, r);
    pvec = r;
    rr = norm2(r);
    return true;
  };

  // The one restart budget: every snapshot restore and every rebuild of the
  // recursion draws on it.  Running out — or failing the apply a rebuild
  // needs — is fatal: the solve ends with recovered_all = false.
  auto restart = [&]() -> bool {
    if (res.restarts >= kMaxRestarts) {
      fatal = true;
      return false;
    }
    ++res.restarts;
    return true;
  };

  // Residual replacement (after `restart`): rebuild the recursion from the
  // iterate in x.  The rebuilt state is consistent by construction, so a
  // finite corruption burst costs at most some lost progress.
  auto rebuild = [&](const std::string& detail) -> bool {
    res.events.push_back({it, "rebuild", detail});
    if (!init_state()) fatal = true;
    return !fatal;
  };

  // Every restore: replay from the durable snapshot.  With the snapshot
  // missing or torn, restart the recursion from the current x instead (the
  // CG iterate is still a valid initial guess even if perturbed).
  auto recover = [&](const std::string& why) {
    if (!restart()) return;
    staged.valid = false;  // an unaudited staging never survives a restore
    if (snap.intact()) {
      x = snap.x;
      r = snap.r;
      pvec = snap.p;
      rr = snap.rr;
      it = snap.iter;
      res.events.push_back({it, "restore", why + " -> snapshot @ iter " + std::to_string(it)});
      if (rec != nullptr) rec->restore(it, why);
      return;
    }
    res.events.push_back({it, "restore", why + " -> reinit (no snapshot)"});
    if (rec != nullptr) rec->restore(it, why + " (reinit)");
    if (!init_state()) fatal = true;
  };

  // Reliable update (reduced wire only): replace the recursion residual by
  // the exact-wire true residual and restart the search direction.  The
  // reduced wire only ever perturbs *ghost* values of the inner applies, by
  // a relative epsilon of the data on the wire — so between replacements the
  // true residual tracks the recursion residual to O(eps_wire), and each
  // replacement resets the accumulated drift.  Convergence is declared only
  // on an exact residual.  A failed replacement restores a snapshot.
  const bool reduced = cfg_.wire.reduced();
  int last_reliable = 0;
  auto reliable_update = [&](const char* why) -> bool {
    if (!init_state()) {
      recover("reliable update failed");
      return false;
    }
    last_reliable = it;
    ++res.reliable_updates;
    char detail[128];
    std::snprintf(detail, sizeof detail, "%s; exact rel res %.3e", why,
                  std::sqrt(rr / b2));
    res.events.push_back({it, "reliable-update", detail});
    return true;
  };

  // The checkpoint audit, one for both modes: the audited iterate's true
  // residual may exceed its recursion residual by at most the audit factor
  // (plus the wire slack).  Synchronous mode audits the live state on the
  // critical path.  Async mode audits the staged state one iteration after
  // the staging: the apply runs inside that iteration's operator-application
  // window on the simulated clock, so its cost is accounted off the critical
  // path (hidden_applies).  On drift the solve restores the durable
  // snapshot.  A second drift against the same snapshot means the snapshot
  // itself captured corrupted recursion state (the flip was below the audit
  // threshold when it was taken) — restoring it again can never help, so
  // the solve keeps its iterate and rebuilds the recursion from it instead.
  // Returns true when the audited state may become durable.
  const bool async = cfg_.async_checkpoint;
  auto audit = [&](const ColorField& ax, double arr, int at) -> bool {
    const int audit_mark = res.applies;
    const std::optional<double> tr2 = true_residual2(ax);
    res.checkpoint_applies += res.applies - audit_mark;
    if (async) res.hidden_applies += res.applies - audit_mark;
    if (!tr2.has_value()) {
      recover(async ? "async audit apply failed" : "audit apply failed");
      return false;
    }
    if (!(std::sqrt(*tr2) > cfg_.residual_audit_factor * std::sqrt(arr) + audit_slack)) {
      return true;
    }
    char detail[128];
    std::snprintf(detail, sizeof detail, "%strue res %.3e vs recursion %.3e",
                  async ? "staged " : "", std::sqrt(*tr2 / b2), std::sqrt(arr / b2));
    res.events.push_back({at, async ? "audit-discard" : "audit-restore", detail});
    if (!snap.intact() || snap.iter != last_audit_restore_iter) {
      recover(async ? "async residual audit failed" : "residual audit failed");
      last_audit_restore_iter = it;
    } else if (restart()) {
      x = snap.x;
      it = snap.iter;
      staged.valid = false;
      if (rebuild("residual replacement @ iter " + std::to_string(it))) {
        snap.take(x, r, pvec, rr, it);
        if (rec != nullptr) rec->checkpoint(it, "post-rebuild");
        last_audit_restore_iter = -1;
      }
    }
    return false;
  };

  if (!init_state()) {
    // Even the initial residual could not be computed cleanly; one restore
    // pass (post-failover replay) is the only option left.
    recover("init failed");
  }
  if (!fatal) {
    snap.take(x, r, pvec, rr, it);
    if (rec != nullptr) rec->checkpoint(it, "initial state");
  }
  // A failover during init already replayed the whole apply on the surviving
  // grid inside the runner, so the freshly snapshotted state is consistent.
  failover_seen_ = false;

  while (!fatal && it < cfg_.cg.max_iterations) {
    if (rr <= target) {
      // Exact wire: the recursion residual is trustworthy — converged.
      if (!reduced) break;
      // Reduced wire: the recursion believes it converged, but its residual
      // drifted from the truth by the accumulated wire rounding.  Replace it
      // through the exact fp64 wire and exit only when *that* residual
      // clears the target (docs/WIRE.md §5).
      if (reliable_update("convergence gate") && rr <= target) break;
      continue;
    }
    // Cancellation gate, at iteration granularity: the cancel hook (a
    // scheduler's apply budget, say) stops the solve cleanly — the iterate in
    // x is still the best-so-far and the residual below is reported honestly.
    if (cfg_.cancel && cfg_.cancel(it, res.applies)) {
      res.cancelled = true;
      res.events.push_back({it, "cancelled", "cancelled by caller"});
      break;
    }

    // Periodic reliable update: bound the residual drift a reduced wire can
    // accumulate between replacements (never fires on the exact wire).
    if (reduced && it - last_reliable >= kReliableInterval && !reliable_update("periodic")) {
      continue;
    }

    // Checkpoint hook.  Async mode first audits the state it staged at an
    // earlier iteration and promotes it durable; at the cadence it then only
    // stages a host-side copy.  Synchronous mode audits the live state at
    // the cadence and snapshots it.
    if (async && staged.valid && staged.iter != it) {
      if (!audit(staged.x, staged.rr, staged.iter)) continue;
      snap = staged;
      staged.valid = false;
      last_audit_restore_iter = -1;
      ++res.checkpoints_taken;
      ++res.snapshots_promoted;
      res.events.push_back({snap.iter, "checkpoint", "promoted (async audit passed)"});
      if (rec != nullptr) {
        rec->snapshot_audit(snap.iter, "true-residual audit passed");
        rec->snapshot_promote(snap.iter, "staged -> durable");
      }
    }
    if (cfg_.checkpoint_interval > 0 && it > 0 && it % cfg_.checkpoint_interval == 0 &&
        snap.iter != it) {
      const std::string rel = "rel res " + std::to_string(std::sqrt(rr / b2));
      if (!async) {
        if (!audit(x, rr, it)) continue;
        snap.take(x, r, pvec, rr, it);
        last_audit_restore_iter = -1;
        ++res.checkpoints_taken;
        res.events.push_back({it, "checkpoint", rel});
        if (rec != nullptr) rec->checkpoint(it, rel);
      } else if (!staged.valid || staged.iter != it) {
        staged.take(x, r, pvec, rr, it);
        ++res.snapshots_staged;
        res.events.push_back({it, "checkpoint-staged", rel});
        if (rec != nullptr) rec->checkpoint(it, "staged (async) " + rel);
      }
    }

    if (!apply_checked(pvec, Ap)) {
      recover("apply unrecoverable");
      continue;
    }
    if (failover_seen_) {
      // The apply completed on the new grid, but iterations since the last
      // snapshot mixed grids mid-flight; replay from the snapshot so the
      // trajectory is the pure post-failover one (bit-reproducible from the
      // seed thanks to the sharded Dslash's grid-independent exactness).
      failover_seen_ = false;
      recover("device-loss failover");
      continue;
    }

    if (!cg_step(Ap, x, r, pvec, rr)) {
      // A negative curvature direction on an HPD operator means corrupted
      // recursion state, not a property of the system: rebuild via residual
      // replacement while the restart budget lasts.
      if (restart()) rebuild("pAp breakdown; residual replacement");
      continue;
    }
    ++it;
    if (cfg_.cg.log_every > 0 && it % cfg_.cg.log_every == 0) {
      std::printf("sharded-cg: iter %5d  rel res %.3e\n", it, std::sqrt(rr / b2));
    }
  }

  res.cg.iterations = it;
  res.cg.relative_residual = std::sqrt(rr / b2);
  res.cg.converged = !fatal && rr <= target;
  res.recovered_all = !fatal;

  // True residual through the guarded apply — always on the exact fp64 wire,
  // so a reduced-wire solve is certified against the same answer an exact
  // solve must reach (falls back to the last value on a persistent failure
  // rather than reporting garbage).  A cancelled solve skips it: the caller
  // stopped paying for applies.
  if (res.cancelled) {
    res.cg.true_relative_residual = res.cg.relative_residual;
  } else if (const std::optional<double> tr2 = true_residual2(x, /*exact=*/true)) {
    res.cg.true_relative_residual = std::sqrt(*tr2 / b2);
    res.certified = res.cg.converged && res.cg.true_relative_residual <= cfg_.cg.rel_tol;
  } else {
    res.cg.true_relative_residual = res.cg.relative_residual;
    res.recovered_all = false;
  }

  res.final_grid = grid_;
  if (inj != nullptr) {
    res.faults = inj->log_since(log_mark);
    inj->set_corruption_targets({});
  }
  return res;
}

std::vector<ksan::SanitizerReport> ShardedCgSolver::dsan_check(const ColorField& b,
                                                               ColorField& x,
                                                               ShardedCgResult* result) {
  const std::string label = "sharded-cg @ " + grid_.label();
  dsan::ScopedRecorder sr;
  ShardedCgResult res = solve(b, x);
  if (result != nullptr) *result = std::move(res);
  return dsan::check_all(sr.rec.trace(), label);
}

}  // namespace milc::multidev
