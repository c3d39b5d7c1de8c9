// perfbench — the repository benchmark: closed-loop resilient-PCG solves on
// the paper's Table 2 setup (Emilia stand-in, 128 simulated nodes, block
// Jacobi 10, rtol 1e-8), one workload per resilience configuration.
//
//   perfbench --workload plain|esr|esrp_faults|imcr_faults --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// One client in one process: SolveService::prepare once, then repeated
// SolveService::solve on the prepared handle, each solve issued only after
// the previous one returned. Kernel threads are pinned to 1. Every solve is
// checked against a failure-free reference solve. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones, timed
// from outside each module on the workload's own operands. README.md in
// this directory maps every metric to its layer and workload.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/solve_spec.hpp"
#include "comm/aspmv_plan.hpp"
#include "comm/exchange.hpp"
#include "comm/spmv_plan.hpp"
#include "common/fnv.hpp"
#include "common/fused.hpp"
#include "common/rng.hpp"
#include "common/vec.hpp"
#include "core/reconstruction.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/cluster.hpp"
#include "netsim/comm_ledger.hpp"
#include "netsim/dist_vector.hpp"
#include "netsim/failure.hpp"
#include "parallel/parallel.hpp"
#include "partition/partition.hpp"
#include "precond/block_jacobi.hpp"
#include "resilience/checkpoint_store.hpp"
#include "resilience/redundancy_queue.hpp"
#include "resilience/solver_state.hpp"
#include "scenario/failure_process.hpp"
#include "service/solve_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/sell.hpp"
#include "xp/experiment.hpp"

namespace {

using namespace esrp;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads --

// The shared problem: the paper's Table 2 setup (1,213 iterations).
constexpr const char* kMatrix = "emilia";
constexpr rank_t kNodes = 128;
constexpr index_t kBlockSize = 10;
constexpr real_t kRtol = 1e-8;

struct Workload {
  const char* name;
  Strategy strategy;
  index_t interval;
  int phi;
  /// Each solve gets its own sampled failure schedule.
  bool faults;
  /// Solves that always run, whatever --seconds says. The deterministic
  /// counters (modeled_s, executed_iters, ...) average over exactly these,
  /// so they repeat bit for bit between runs of one seed.
  int min_solves;
};

// Why each workload exists is recorded in README.md next to this file.
constexpr Workload kWorkloads[] = {
    {"plain", Strategy::none, 20, 1, false, 3},
    {"esr", Strategy::esrp, 1, 1, false, 3},
    {"esrp_faults", Strategy::esrp, 20, 3, true, 10},
    {"imcr_faults", Strategy::imcr, 20, 3, true, 10},
};

/// Failure process of the faults workloads, `rack:<phi>/` prefixed: about
/// four phi-wide events per 1,213-iteration solve.
constexpr const char* kFaultProcess = "exponential:mean=300";

/// Failure-free workloads turn every kProbeEvery-th loop solve into a probe
/// so that recovery_s exists for them too, sampled across the whole run:
/// kProbeEvents phi-wide failures at distinct iterations. Under
/// strategy=none every failure restarts from scratch and re-runs all
/// iterations before it, so its events stay in the first kProbeWindow
/// iterations after kProbeFirst; ESR resumes where it failed, so its events
/// spread over the whole trajectory. Probes are kept out of solve_s,
/// iter_ms, modeled_s and executed_iters.
constexpr int kProbeEvery = 4;
constexpr int kProbeEvents = 8;
constexpr index_t kProbeFirst = 10;
constexpr index_t kProbeWindow = 32;
/// Solve id of the probe in failure messages and trace spans, clear of the
/// loop solves' ids.
constexpr int kProbeSolveId = 1000000;

/// Solves recovered by an inexact rung (reconstruct, older snapshot) must
/// reach a true relative residual within this factor of the reference's.
constexpr real_t kRelresFactor = 1.1;

/// Cold prepares per run; setup_s is their median.
constexpr int kSetupReps = 3;

std::uint64_t solve_seed(std::uint64_t workload_seed, std::uint64_t index) {
  const std::uint64_t words[2] = {workload_seed, index};
  return fnv1a(words, sizeof(words));
}

// ------------------------------------------------------------- utilities --

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

std::uint64_t hash_vector(std::span<const real_t> x) {
  return fnv1a(x.data(), x.size_bytes());
}

/// Peak resident set (VmHWM) of this process, MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// Current resident set, MiB.
double rss_mib() {
  std::ifstream in("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  in >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Cache size from sysfs ("2048K" style), bytes; 0 when unavailable.
double cache_bytes(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lv(base + "/level"), ty(base + "/type"), sz(base + "/size");
    int l = 0;
    std::string type, size;
    if (!(lv >> l) || !(ty >> type) || !(sz >> size)) continue;
    if (l != level || type == "Instruction") continue;
    double mult = 1;
    if (!size.empty() && (size.back() == 'K' || size.back() == 'M')) {
      mult = size.back() == 'K' ? 1024.0 : 1024.0 * 1024.0;
      size.pop_back();
    }
    return std::stod(size) * mult;
  }
  return 0;
}

// ------------------------------------------------------------------ trace --

/// In-memory span store, written out once when the run ends.
class Tracer {
public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int solve = -1; ///< solve id shared by a solve's spans; -1 = none
    std::string note;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int open(std::string name, int parent, int solve) {
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, solve, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// Record an already-finished span.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           int parent, int solve, std::string note = {}) {
    spans_.push_back(Span{std::move(name), ns(start), ns(end), parent, solve,
                          std::move(note)});
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"solve\":" << s.solve;
      if (!s.note.empty()) out << ",\"note\":\"" << s.note << "\"";
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

  std::size_t size() const { return spans_.size(); }

private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  std::int64_t now_ns() const { return ns(Clock::now()); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Median wall time of `reps` calls of `f`, in seconds; each call is one
/// span under `parent`.
template <class F>
double time_median(Tracer& tr, const std::string& name, int parent, int reps,
                   F&& f) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int k = 0; k < reps; ++k) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    t.push_back(std::chrono::duration<double>(t1 - t0).count());
    tr.add(name, t0, t1, parent, -1);
  }
  return median(std::move(t));
}

// -------------------------------------------------------------- observers --

struct RecoveryTiming {
  RecoveryRung rung = RecoveryRung::none;
  double seconds = 0;
  std::size_t attempted = 0;
};

/// The timed run's observer: stamps on_failure and on_recovery only.
class RecoveryStamp : public SolverObserver {
public:
  void on_failure(const FailureEvent&) override { failed_at_ = Clock::now(); }
  void on_recovery(const RecoveryRecord& rec) override {
    recoveries.push_back(
        {rec.rung, seconds_since(failed_at_), rec.attempted.size()});
  }

  std::vector<RecoveryTiming> recoveries;

protected:
  Clock::time_point failed_at_ = Clock::now();
};

/// The traced run's observer: additionally records one span per iteration
/// and one per recovery, all tagged with the solve's id.
class TraceObserver final : public RecoveryStamp {
public:
  TraceObserver(Tracer& tr, int solve_span, int solve_id)
      : tr_(tr), parent_(solve_span), solve_(solve_id), last_(Clock::now()) {}

  void on_iteration(index_t j, real_t) override {
    const auto now = Clock::now();
    tr_.add("core.iteration", last_, now, parent_, solve_, "j=" + std::to_string(j));
    last_ = now;
  }
  void on_recovery(const RecoveryRecord& rec) override {
    RecoveryStamp::on_recovery(rec);
    tr_.add("resilience.recovery", failed_at_, Clock::now(), parent_, solve_,
            "rung=" + to_string(rec.rung));
  }

private:
  Tracer& tr_;
  int parent_;
  int solve_;
  Clock::time_point last_;
};

// ------------------------------------------------------ correctness check --

struct Reference {
  std::uint64_t x_hash = 0;
  real_t true_relres = 0;
  index_t iterations = 0;
};

bool exact_rung(RecoveryRung r) {
  return r == RecoveryRung::checkpoint || r == RecoveryRung::scratch;
}

/// Empty string when `rep` passes; otherwise the reason it fails.
///  - every solve converges with recursive relres < rtol;
///  - failure-free solves and solves recovered only by exact rungs
///    (checkpoint, scratch) reproduce the reference x bit for bit;
///  - solves that used an inexact rung reach a true relres within
///    kRelresFactor of the reference's.
std::string check_solve(const SolveReport& rep, const Reference& ref,
                        real_t* relres_ratio = nullptr) {
  if (!rep.converged || !(rep.final_relres < kRtol))
    return "not converged (relres " + std::to_string(rep.final_relres) + ")";
  const bool exact = std::all_of(
      rep.recoveries.begin(), rep.recoveries.end(),
      [](const RecoveryRecord& r) { return exact_rung(r.rung); });
  if (exact) {
    if (hash_vector(rep.x) != ref.x_hash)
      return "x differs from the failure-free reference";
    return {};
  }
  if (relres_ratio)
    *relres_ratio = std::max(*relres_ratio, rep.true_relres / ref.true_relres);
  if (!(rep.true_relres <= kRelresFactor * ref.true_relres)) {
    std::ostringstream os;
    os << "true relres " << rep.true_relres << " exceeds " << kRelresFactor
       << " x reference " << ref.true_relres;
    return os.str();
  }
  return {};
}

/// The check must reject a perturbed x and an unconverged report.
bool check_self_test(const SolveReport& good, const Reference& ref) {
  if (!check_solve(good, ref).empty()) return false;
  SolveReport perturbed = good;
  perturbed.x[perturbed.x.size() / 2] =
      std::nextafter(perturbed.x[perturbed.x.size() / 2], 1e300);
  SolveReport unconverged = good;
  unconverged.converged = false;
  return !check_solve(perturbed, ref).empty() &&
         !check_solve(unconverged, ref).empty();
}

// ----------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string samples; ///< human-readable sample description
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ runner --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

class Bench {
public:
  Bench(const Args& args, const Workload& w)
      : args_(args), w_(w), epoch_(Clock::now()), tracer_(epoch_) {
    problem_.matrix = kMatrix;
    problem_.nodes = kNodes;
    problem_.precond = "block-jacobi";
    problem_.block_size = kBlockSize;
    config_.solver = "resilient-pcg";
    config_.rtol = kRtol;
    config_.strategy = w.strategy;
    config_.interval = w.interval;
    config_.phi = w.phi;
  }

  int run();

private:
  struct Solve {
    SolveReport report;
    double wall = 0;
    std::vector<RecoveryTiming> recoveries;
  };

  /// One checked solve; counts toward attempted/failed.
  Solve solve(const std::vector<FailureEvent>& schedule, RecoveryStamp& obs,
              int solve_id);
  std::vector<FailureEvent> fault_schedule(int index) const;
  std::vector<FailureEvent> probe_schedule(int index) const;
  void fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }

  void setup(int trace_parent = -1);
  void reference();
  std::vector<Metric> end_to_end();
  std::vector<Metric> per_layer();
  void print_working_set(std::vector<Metric>* out) const;
  void print_exact(const std::vector<std::pair<std::string, double>>& kv) const;

  const Args& args_;
  const Workload& w_;
  Clock::time_point epoch_;
  Tracer tracer_;
  ProblemSpec problem_;
  SolverConfig config_;
  SolveService svc_;
  std::shared_ptr<const ProblemHandle> handle_;
  std::vector<double> setup_s_;
  Reference ref_;
  bool self_test_ok_ = false;
  int attempted_ = 0;
  int failed_ = 0;
  /// Largest true-relres / reference ratio among inexactly recovered solves.
  real_t worst_relres_ratio_ = 0;
};

std::vector<FailureEvent> Bench::fault_schedule(int index) const {
  if (!w_.faults) return {};
  return sample_failure_schedule(
      "rack:" + std::to_string(w_.phi) + "/" + kFaultProcess, kNodes,
      ref_.iterations, solve_seed(args_.seed, static_cast<std::uint64_t>(index)));
}

std::vector<FailureEvent> Bench::probe_schedule(int index) const {
  Rng rng(solve_seed(args_.seed, static_cast<std::uint64_t>(index)));
  const index_t window = w_.strategy == Strategy::none
                             ? kProbeWindow
                             : ref_.iterations - kProbeFirst;
  std::vector<index_t> its;
  while (static_cast<int>(its.size()) < kProbeEvents) {
    const index_t j = kProbeFirst + rng.uniform_index(0, window - 1);
    if (std::find(its.begin(), its.end(), j) == its.end()) its.push_back(j);
  }
  std::sort(its.begin(), its.end());
  std::vector<FailureEvent> out;
  for (index_t j : its) {
    FailureEvent e;
    e.iteration = j;
    e.ranks = contiguous_ranks(
        static_cast<rank_t>(rng.uniform_index(0, kNodes - 1)), w_.phi, kNodes);
    out.push_back(std::move(e));
  }
  return out;
}

Bench::Solve Bench::solve(const std::vector<FailureEvent>& schedule,
                          RecoveryStamp& obs, int solve_id) {
  RunSpec run;
  run.failures = schedule;
  run.threads = 1;
  Solve s;
  ++attempted_;
  const auto t0 = Clock::now();
  try {
    s.report = svc_.solve(*handle_, run, &obs);
  } catch (const std::exception& e) {
    s.wall = seconds_since(t0);
    fail(std::string("solve threw: ") + e.what());
    return s;
  }
  s.wall = seconds_since(t0);
  s.recoveries = obs.recoveries;
  const std::string why = check_solve(s.report, ref_, &worst_relres_ratio_);
  if (!why.empty()) fail("solve " + std::to_string(solve_id) + ": " + why);
  return s;
}

/// kSetupReps cold prepares; in a traced run each is a span under
/// `trace_parent`.
void Bench::setup(int trace_parent) {
  for (int k = 0; k < kSetupReps; ++k) {
    handle_.reset();
    svc_.clear_cache();
    const auto t0 = Clock::now();
    PrepareResult pr = svc_.prepare(problem_, config_);
    const auto t1 = Clock::now();
    setup_s_.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (args_.trace) tracer_.add("service.prepare", t0, t1, trace_parent, -1);
    ESRP_CHECK_MSG(!pr.cache_hit, "cold prepare hit the cache");
    handle_ = std::move(pr.handle);
  }
}

void Bench::reference() {
  // The failure-free, unprotected solve every check compares against.
  SolverConfig ref_cfg = config_;
  ref_cfg.strategy = Strategy::none;
  ref_cfg.interval = 20;
  ref_cfg.phi = 1;
  const auto ref_handle = svc_.prepare(problem_, ref_cfg).handle;
  RunSpec run;
  run.threads = 1;
  const SolveReport rep = svc_.solve(*ref_handle, run);
  ESRP_CHECK_MSG(rep.converged, "reference solve did not converge");
  ref_.x_hash = hash_vector(rep.x);
  ref_.true_relres = rep.true_relres;
  ref_.iterations = rep.iterations;
  self_test_ok_ = check_self_test(rep, ref_);
  std::printf("reference: iterations=%lld modeled_s=%.6f true_relres=%.6e "
              "x_fnv=%016llx check_self_test=%s\n",
              static_cast<long long>(rep.iterations), rep.modeled_time,
              rep.true_relres, static_cast<unsigned long long>(ref_.x_hash),
              self_test_ok_ ? "pass" : "FAIL");
}

void Bench::print_exact(
    const std::vector<std::pair<std::string, double>>& kv) const {
  std::ostringstream os;
  os << "exact {";
  for (std::size_t i = 0; i < kv.size(); ++i)
    os << (i ? ", " : "") << "\"" << kv[i].first << "\": " << fmt(kv[i].second);
  os << "}";
  std::printf("%s\n", os.str().c_str());
}

void Bench::print_working_set(std::vector<Metric>* out) const {
  const CsrMatrix& a = handle_->matrix();
  const double n = static_cast<double>(a.rows());
  const double mib = 1024.0 * 1024.0;
  const double csr = (n + 1) * sizeof(index_t) +
                     static_cast<double>(a.nnz()) * (sizeof(index_t) + sizeof(real_t));
  const double vec = n * sizeof(real_t);
  const double scratch = static_cast<double>(kNodes) * vec;
  std::printf("working_set: csr=%.2f MiB vector=%.3f MiB exchange_scratch(P*n)=%.2f MiB "
              "| L2/core=%.2f MiB L3=%.1f MiB (sysfs) | rows=%lld nnz=%lld\n",
              csr / mib, vec / mib, scratch / mib, cache_bytes(2) / mib,
              cache_bytes(3) / mib, static_cast<long long>(a.rows()),
              static_cast<long long>(a.nnz()));
  if (out) {
    out->push_back({"ws.csr_mib", csr / mib, "MiB", "computed"});
    out->push_back({"ws.vector_mib", vec / mib, "MiB", "computed"});
    out->push_back({"ws.exchange_scratch_mib", scratch / mib, "MiB", "computed, P*n"});
  }
}

int Bench::run() {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d threads=1 "
              "matrix=%s nodes=%d strategy=%s T=%lld phi=%d\n",
              w_.name, static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0, kMatrix, kNodes,
              to_string(w_.strategy).c_str(),
              static_cast<long long>(w_.interval), w_.phi);
  std::vector<Metric> metrics = args_.trace ? per_layer() : end_to_end();
  const bool correct = failed_ == 0 && self_test_ok_;
  if (!args_.trace_out.empty() && !tracer_.write(args_.trace_out))
    std::fprintf(stderr, "perfbench: could not write %s\n", args_.trace_out.c_str());
  std::printf("check: %d/%d failed; worst true relres / reference after an "
              "inexact recovery: %.4g (limit %g; 0 = no inexact recovery)\n",
              failed_, attempted_, worst_relres_ratio_, kRelresFactor);
  print_result(correct, attempted_, failed_, metrics);
  return 0;
}

// ------------------------------------------------------ end-to-end (trace 0)

std::vector<Metric> Bench::end_to_end() {
  setup();
  reference();
  print_working_set(nullptr);

  std::vector<Solve> solves;
  std::vector<double> recovery;
  std::optional<SolveReport> first_probe;
  int probes = 0;
  const auto loop_start = Clock::now();
  for (int i = 0;; ++i) {
    const bool probe = !w_.faults && i % kProbeEvery == kProbeEvery - 1;
    if (!probe && static_cast<int>(solves.size()) >= w_.min_solves &&
        (w_.faults || probes > 0) && seconds_since(loop_start) >= args_.seconds)
      break;
    RecoveryStamp obs;
    Solve s = solve(probe ? probe_schedule(i) : fault_schedule(i), obs, i);
    for (const RecoveryTiming& r : s.recoveries) recovery.push_back(r.seconds);
    if (!probe) {
      solves.push_back(std::move(s));
    } else if (probes++ == 0) {
      first_probe = std::move(s.report);
    }
  }
  const double loop_s = seconds_since(loop_start);

  // Failure-free workloads: every solve repeats the first one exactly.
  if (!w_.faults)
    for (std::size_t i = 1; i < solves.size(); ++i)
      if (solves[i].report.modeled_time != solves[0].report.modeled_time ||
          solves[i].report.executed_iterations != solves[0].report.executed_iterations)
        fail("solve " + std::to_string(i) + " counters differ from solve 0");

  std::vector<std::pair<std::string, double>> exact;
  if (first_probe) {
    exact.push_back({"probe.modeled_s", first_probe->modeled_time});
    exact.push_back({"probe.executed_iters",
                     static_cast<double>(first_probe->executed_iterations)});
  }

  std::vector<double> wall, per_iter, modeled, executed;
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const Solve& s = solves[i];
    wall.push_back(s.wall);
    per_iter.push_back(s.wall / std::max<double>(1, static_cast<double>(s.report.executed_iterations)));
    if (static_cast<int>(i) < w_.min_solves) {
      modeled.push_back(s.report.modeled_time);
      executed.push_back(static_cast<double>(s.report.executed_iterations));
    }
  }
  exact.insert(exact.begin(), {{"modeled_s", mean(modeled)},
                               {"executed_iters", mean(executed)},
                               {"reference.iterations", static_cast<double>(ref_.iterations)}});
  print_exact(exact);

  const std::string n_solves = "median of " + std::to_string(solves.size()) + " solves";
  const std::string n_exact = "mean of first " + std::to_string(w_.min_solves) + " solves";
  const std::string n_rec =
      "median of " + std::to_string(recovery.size()) + " recoveries" +
      (w_.faults ? "" : " in " + std::to_string(probes) + " probe solves");
  const double failed_frac = attempted_ ? static_cast<double>(failed_) / attempted_ : 1.0;
  std::printf("loop: %zu solves + %d probes in %.3f s (closed loop, 1 client); "
              "failed_frac=%g (%d/%d)\nsolve walls:",
              solves.size(), probes, loop_s, failed_frac, failed_, attempted_);
  for (double t : wall) std::printf(" %.3f", t);
  std::printf("\n");
  return {
      {"solve_s", median(wall), "s", n_solves},
      {"iter_ms", 1e3 * median(per_iter), "ms", n_solves + ", wall/executed"},
      {"setup_s", median(setup_s_), "s", "median of " + std::to_string(kSetupReps) + " cold prepares"},
      {"recovery_s", median(recovery), "s", n_rec},
      {"modeled_s", mean(modeled), "sim_s", n_exact + ", cost model"},
      {"executed_iters", mean(executed), "count", n_exact},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "VmHWM"},
  };
}

// -------------------------------------------------------- per-layer (trace 1)

std::vector<Metric> Bench::per_layer() {
  Tracer& tr = tracer_;
  std::vector<Metric> m;
  auto add = [&](std::string name, double v, std::string unit, std::string s) {
    m.push_back({std::move(name), v, std::move(unit), std::move(s)});
  };
  constexpr int kSetupProbeReps = 3;

  // --- setup path: one module at a time, then the service composite.
  const int setup_span = tr.open("setup", -1, -1);
  std::optional<TestProblem> gen;
  const double gen_s = time_median(tr, "sparse.generate", setup_span, kSetupProbeReps,
                                   [&] { gen.emplace(emilia_like_default()); });
  const CsrMatrix& ga = gen->matrix;
  std::optional<BlockRowPartition> part;
  const double part_s = time_median(tr, "partition.build", setup_span, 20,
                                    [&] { part.emplace(ga.rows(), kNodes); });
  std::optional<SpmvPlan> plan;
  const double plan_s = time_median(tr, "comm.spmv_plan", setup_span, kSetupProbeReps,
                                    [&] { plan.emplace(ga, *part); });
  std::optional<AspmvPlan> aug;
  const double aug_s = time_median(tr, "comm.aspmv_plan", setup_span, kSetupProbeReps,
                                   [&] { aug.emplace(*plan, w_.phi); });
  std::optional<BlockJacobiPreconditioner> bj;
  const double fact_s = time_median(tr, "precond.factorize", setup_span, kSetupProbeReps,
                                    [&] { bj.emplace(ga, *part, kBlockSize); });
  setup(setup_span);
  const double hit_s = time_median(tr, "service.prepare_hit", setup_span, 50, [&] {
    ESRP_CHECK(svc_.prepare(problem_, config_).cache_hit);
  });
  tr.close(setup_span);
  add("sparse.generate_ms", 1e3 * gen_s, "ms", "median of 3");
  add("partition.build_us", 1e6 * part_s, "us", "median of 20");
  add("comm.spmv_plan_ms", 1e3 * plan_s, "ms", "median of 3");
  add("comm.aspmv_plan_ms", 1e3 * aug_s, "ms", "median of 3, phi=" + std::to_string(w_.phi));
  add("precond.factorize_ms", 1e3 * fact_s, "ms", "median of 3");
  add("service.prepare_ms", 1e3 * median(setup_s_), "ms", "median of 3 cold");
  add("service.prepare_hit_us", 1e6 * hit_s, "us", "median of 50 hits");
  gen.reset();

  reference();
  print_working_set(&m);

  // The workload's own operands, from the prepared handle.
  const CsrMatrix& a = handle_->matrix();
  const PreparedParts parts = handle_->parts();
  const BlockRowPartition& hp = *parts.part;
  const Preconditioner& pc = handle_->precond();
  const std::span<const real_t> b = handle_->default_rhs();
  const auto n = static_cast<std::size_t>(a.rows());

  // --- kernels on the global operands.
  const int kern_span = tr.open("kernels", -1, -1);
  Vector x(b.begin(), b.end()), y(n), y2(n), z(n);
  constexpr int kKernReps = 60;
  const double spmv_s = time_median(tr, "sparse.spmv", kern_span, kKernReps,
                                    [&] { a.spmv(x, y); });
  const SellMatrix sell(a);
  const double sell_s = time_median(tr, "sparse.sell_spmv", kern_span, kKernReps,
                                    [&] { sell.spmv(x, y); });
  const double nnz = static_cast<double>(a.nnz());
  const double vec_bytes = 2.0 * static_cast<double>(n) * sizeof(real_t); // x read, y written
  const double csr_bytes = static_cast<double>(n + 1) * sizeof(index_t) +
                           nnz * (sizeof(index_t) + sizeof(real_t)) + vec_bytes;
  const double sell_bytes =
      static_cast<double>(sell.padded_entries()) * sizeof(real_t) +
      static_cast<double>(sell.col_stream_entries()) * sizeof(std::int32_t) +
      static_cast<double>(n) * sizeof(index_t) + vec_bytes;
  double sink = 0;
  const double dot_s = time_median(tr, "common.dot", kern_span, 200,
                                   [&] { sink += vec_dot(x, y); });
  const double axpy2_s = time_median(tr, "common.axpy2", kern_span, 200, [&] {
    fused_axpy2(y, 1e-3, x, y2, -1e-3, x);
  });
  const double apply_s = time_median(tr, "precond.apply", kern_span, kKernReps,
                                     [&] { pc.apply(x, z); });
  tr.close(kern_span);
  ++attempted_;
  if (!std::isfinite(sink)) fail("vec_dot of finite vectors is not finite");
  add("sparse.spmv_us", 1e6 * spmv_s, "us", "CSR, median of 60");
  add("sparse.sell_spmv_us", 1e6 * sell_s, "us", "SELL-4-4096, median of 60");
  add("sparse.csr_bytes_per_nnz", csr_bytes / nnz, "B/nnz", "computed from array sizes");
  add("sparse.sell_bytes_per_nnz", sell_bytes / nnz, "B/nnz", "computed from array sizes");
  add("sparse.spmv_gbps_computed", csr_bytes / spmv_s / 1e9, "GB/s", "computed bytes / measured time");
  add("sparse.sell_spmv_gbps_computed", sell_bytes / sell_s / 1e9, "GB/s", "computed bytes / measured time");
  add("common.dot_us", 1e6 * dot_s, "us", "median of 200");
  add("common.axpy2_us", 1e6 * axpy2_s, "us", "median of 200");
  add("precond.apply_us", 1e6 * apply_s, "us", "median of 60");

  // --- exchange on a bench-owned cluster with the handle's plans.
  const int ex_span = tr.open("exchange", -1, -1);
  SimCluster cl(hp, xp::calibrated_cost(a, kNodes));
  malloc_trim(0);
  const double rss0 = rss_mib();
  std::optional<ExchangeEngine> eng;
  eng.emplace(a, *parts.spmv, cl);
  const double engine_rss = rss_mib() - rss0;
  DistVector dp(hp, x), dy(hp);
  const double cspmv_s = time_median(tr, "comm.spmv", ex_span, 30,
                                     [&] { eng->spmv(dp, dy); });
  index_t tag = 0;
  const AspmvPlan& haug = *parts.aspmv;
  const double caspmv_s = time_median(tr, "comm.aspmv", ex_span, 30,
                                      [&] { (void)eng->aspmv(haug, dp, ++tag, dy); });
  tr.close(ex_span);
  add("comm.spmv_us", 1e6 * cspmv_s, "us", "ExchangeEngine::spmv, median of 30");
  add("comm.aspmv_us", 1e6 * caspmv_s, "us", "ExchangeEngine::aspmv, phi=" + std::to_string(w_.phi));
  add("comm.engine_rss_mb", engine_rss, "MiB", "RSS growth building one ExchangeEngine");

  // --- redundancy capture.
  const int red_span = tr.open("redundancy", -1, -1);
  RedundantCopy copy = eng->aspmv(haug, dp, ++tag, dy);
  const double copy_entries = static_cast<double>(copy.total_entries());
  bool copies_ok = true;
  const double verify_s = time_median(tr, "resilience.copy_verify", red_span, 30,
                                      [&] { copies_ok &= copy.verify({}); });
  RedundancyQueue queue(3);
  std::vector<double> push_t;
  for (int k = 0; k < 30; ++k) {
    RedundantCopy c = eng->aspmv(haug, dp, ++tag, dy);
    const auto t0 = Clock::now();
    queue.push(std::move(c));
    const auto t1 = Clock::now();
    tr.add("resilience.queue_push", t0, t1, red_span, -1);
    push_t.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  tr.close(red_span);
  ++attempted_;
  if (!copies_ok) fail("RedundantCopy::verify rejected an untouched copy");
  add("resilience.copy_entries", copy_entries, "count", "exact, one ASpMV capture");
  add("resilience.copy_verify_us", 1e6 * verify_s, "us", "median of 30");
  add("resilience.queue_push_us", 1e6 * median(push_t), "us", "median of 30");

  // --- direct ResilientPcg solve on a bench-owned cluster: per-iteration
  // spans, ledger counts, and the state the reconstruction probe needs.
  const std::vector<FailureEvent> sched0 = fault_schedule(0);
  SimCluster dcl(hp, xp::calibrated_cost(a, kNodes));
  ResilienceOptions ro;
  ro.strategy = w_.strategy;
  ro.interval = w_.interval;
  ro.phi = w_.phi;
  ro.rtol = kRtol;
  ro.extra_failures = sched0;
  ResilientPcg direct(a, pc, dcl, ro, parts.spmv, parts.aspmv);
  const index_t jstar = ref_.iterations / 2;
  Vector cap[2][4]; // [j*-1, j*] x {x, r, z, p}
  std::vector<std::pair<index_t, Clock::time_point>> tops;
  tops.reserve(static_cast<std::size_t>(2 * ref_.iterations));
  direct.set_iteration_hook([&](index_t j, const DistVector& vx, const DistVector& vr,
                                const DistVector& vz, const DistVector& vp) {
    tops.emplace_back(j, Clock::now());
    if (j == jstar - 1 || j == jstar) {
      Vector* c = cap[j == jstar ? 1 : 0];
      c[0] = vx.gather_global();
      c[1] = vr.gather_global();
      c[2] = vz.gather_global();
      c[3] = vp.gather_global();
    }
  });
  const int dspan = tr.open("core.direct_solve", -1, 0);
  const ResilientSolveResult dres = direct.solve(b);
  tr.close(dspan);
  tops.emplace_back(-1, Clock::now());
  std::vector<double> it_all, it_store, it_plain;
  for (std::size_t k = 0; k + 1 < tops.size(); ++k) {
    const index_t j = tops[k].first;
    const double us = 1e6 * std::chrono::duration<double>(tops[k + 1].second - tops[k].second).count();
    it_all.push_back(us);
    bool storage = false;
    if (w_.strategy == Strategy::esrp)
      storage = w_.interval == 1 || (j >= w_.interval && (j % w_.interval == 0 || j % w_.interval == 1));
    else if (w_.strategy == Strategy::imcr)
      storage = j > 0 && j % w_.interval == 0;
    (storage ? it_store : it_plain).push_back(us);
    tr.add("core.iteration", tops[k].second, tops[k + 1].second, dspan, 0,
            std::string(storage ? "storage " : "plain ") + "j=" + std::to_string(j));
  }
  add("core.iter_us_p50", percentile(it_all, 0.5), "us",
      std::to_string(it_all.size()) + " iterations of one direct solve");
  add("core.iter_us_p99", percentile(it_all, 0.99), "us",
      std::to_string(it_all.size()) + " iterations of one direct solve");
  add("core.storage_iter_us_p50", percentile(it_store, 0.5), "us",
      std::to_string(it_store.size()) + " storage iterations (0 = none)");
  add("core.plain_iter_us_p50", percentile(it_plain, 0.5), "us",
      std::to_string(it_plain.size()) + " non-storage iterations (0 = none)");
  const CommLedger& led = dcl.ledger();
  const std::pair<const char*, CommCategory> cats[] = {
      {"spmv_halo", CommCategory::spmv_halo},
      {"aspmv_extra", CommCategory::aspmv_extra},
      {"checkpoint", CommCategory::checkpoint},
      {"recovery", CommCategory::recovery},
      {"allreduce", CommCategory::allreduce}};
  std::vector<std::pair<std::string, double>> exact;
  exact.push_back({"direct.modeled_s", dres.modeled_time});
  exact.push_back({"direct.executed_iters", static_cast<double>(dres.executed_iterations)});
  exact.push_back({"resilience.copy_entries", copy_entries});
  for (const auto& [cname, cat] : cats) {
    const CategoryTotals& t = led.totals(cat);
    add(std::string("netsim.") + cname + "_bytes", static_cast<double>(t.bytes), "B", "exact, direct solve");
    add(std::string("netsim.") + cname + "_msgs", static_cast<double>(t.messages), "count", "exact, direct solve");
    exact.push_back({std::string("netsim.") + cname + "_bytes", static_cast<double>(t.bytes)});
    exact.push_back({std::string("netsim.") + cname + "_msgs", static_cast<double>(t.messages)});
  }

  // --- checkpoints: the IMCR store on the captured state.
  const int ck_span = tr.open("checkpoints", -1, -1);
  DistVector sx(hp, cap[1][0]), sr(hp, cap[1][1]), sz(hp, cap[1][2]), sp(hp, cap[1][3]);
  real_t beta = 0;
  const SolverState state{{&sx, &sr, &sz, &sp}, {}, {&beta}};
  CheckpointStore store(hp, w_.phi, 4, 1);
  index_t ck_tag = 0;
  const double store_s = time_median(tr, "resilience.ckpt_store", ck_span, 30,
                                     [&] { store.store(++ck_tag, state, cl); });
  bool ck_ok = true;
  const double ckv_s = time_median(tr, "resilience.ckpt_verify", ck_span, 30,
                                   [&] { ck_ok &= store.verify(); });
  const std::vector<rank_t> lost = contiguous_ranks(
      static_cast<rank_t>(solve_seed(args_.seed, 7) % kNodes), w_.phi, kNodes);
  const double restore_s = time_median(tr, "resilience.ckpt_restore", ck_span, 30,
                                       [&] { ck_ok &= store.restore(lost, state, cl); });
  tr.close(ck_span);
  ++attempted_;
  if (!ck_ok || hash_vector(sp.gather_global()) != hash_vector(cap[1][3]))
    fail("checkpoint store/verify/restore did not round-trip");
  add("resilience.ckpt_store_us", 1e6 * store_s, "us", "median of 30");
  add("resilience.ckpt_verify_us", 1e6 * ckv_s, "us", "median of 30");
  add("resilience.ckpt_restore_us", 1e6 * restore_s, "us", "median of 30, phi ranks lost");

  // --- reconstruction (Alg. 2) of phi lost ranks at iteration j*.
  const int rc_span = tr.open("recovery", -1, -1);
  DistVector pprev(hp, cap[0][3]), pcur(hp, cap[1][3]);
  RedundantCopy cprev = eng->aspmv(haug, pprev, jstar - 1, dy);
  RedundantCopy ccur = eng->aspmv(haug, pcur, jstar, dy);
  cprev.drop_holders(lost);
  ccur.drop_holders(lost);
  DistVector xs(hp, cap[1][0]), rs(hp, cap[1][1]);
  xs.zero_ranks(lost);
  rs.zero_ranks(lost);
  ReconstructionInputs in;
  in.a = &a;
  in.p_action = pc.action_matrix();
  in.part = &hp;
  in.failed = lost;
  in.p_prev = &cprev;
  in.p_cur = &ccur;
  in.beta_prev = vec_dot(cap[1][1], cap[1][2]) / vec_dot(cap[0][1], cap[0][2]);
  in.x_star = &xs;
  in.r_star = &rs;
  in.b_global = b;
  ReconstructionOutput out;
  const double rec_s = time_median(tr, "core.reconstruct", rc_span, 5,
                                   [&] { out = reconstruct_state(in, cl); });
  tr.close(rc_span);
  ++attempted_;
  {
    real_t err = 0, scale = 0;
    for (std::size_t k = 0; k < out.lost.size(); ++k) {
      const real_t ref_x = cap[1][0][static_cast<std::size_t>(out.lost[k])];
      err = std::max(err, std::abs(out.x_f[k] - ref_x));
      scale = std::max(scale, std::abs(ref_x));
    }
    std::printf("reconstruct probe: j*=%lld lost=%zu entries max|dx|/max|x|=%.3e\n",
                static_cast<long long>(jstar), out.lost.size(), scale > 0 ? err / scale : err);
    if (!out.ok || !(err <= 1e-6 * scale))
      fail("reconstruct_state did not recover x at j*");
  }
  add("core.reconstruct_ms", 1e3 * rec_s, "ms",
      "reconstruct_state, " + std::to_string(w_.phi) + " lost ranks, median of 5");

  // --- closed loop: the same schedule untraced then traced, alternately.
  std::vector<double> untraced, traced;
  double useful = 0, executed = 0;
  std::map<RecoveryRung, std::vector<double>> by_rung;
  double attempts = 0, demotions = 0;
  int recoveries = 0;
  auto account = [&](const Solve& s) {
    for (const RecoveryTiming& r : s.recoveries) {
      by_rung[r.rung].push_back(r.seconds);
      attempts += static_cast<double>(r.attempted);
      demotions += static_cast<double>(r.attempted > 0 ? r.attempted - 1 : 0);
      ++recoveries;
    }
  };
  const auto loop_start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= 2 && seconds_since(loop_start) >= args_.seconds) break;
    const std::vector<FailureEvent> sched = fault_schedule(i);
    RecoveryStamp untraced_obs;
    const Solve u = solve(sched, untraced_obs, 2 * i + 1);
    const int sspan = tr.open("service.solve", -1, 2 * i + 2);
    TraceObserver tobs(tr, sspan, 2 * i + 2);
    const Solve t = solve(sched, tobs, 2 * i + 2);
    tr.close(sspan);
    untraced.push_back(u.wall);
    traced.push_back(t.wall);
    if (i == 0 && (u.report.modeled_time != dres.modeled_time ||
                   u.report.executed_iterations != dres.executed_iterations))
      fail("direct ResilientPcg solve and service solve 0 disagree on counters");
    if (t.report.modeled_time != u.report.modeled_time ||
        hash_vector(t.report.x) != hash_vector(u.report.x))
      fail("traced solve differs from untraced solve " + std::to_string(i));
    account(t);
    useful += static_cast<double>(t.report.iterations);
    executed += static_cast<double>(t.report.executed_iterations);
  }
  if (!w_.faults) {
    const int sspan = tr.open("service.solve", -1, kProbeSolveId);
    TraceObserver tobs(tr, sspan, kProbeSolveId);
    const Solve p = solve(probe_schedule(kProbeSolveId), tobs, kProbeSolveId);
    tr.close(sspan);
    account(p);
    exact.push_back({"probe.modeled_s", p.report.modeled_time});
  }
  for (RecoveryRung rung : {RecoveryRung::reconstruct, RecoveryRung::older_snapshot,
                            RecoveryRung::checkpoint, RecoveryRung::scratch}) {
    const auto it = by_rung.find(rung);
    const std::vector<double> v = it == by_rung.end() ? std::vector<double>{} : it->second;
    add("core.recovery_ms." + to_string(rung), 1e3 * median(v), "ms",
        std::to_string(v.size()) + " recoveries (0 = rung not taken)");
  }
  add("resilience.rung_attempts", recoveries ? attempts / recoveries : 0, "count",
      "rungs tried per recovery, " + std::to_string(recoveries) + " recoveries");
  add("resilience.rung_demotions", recoveries ? demotions / recoveries : 0, "count",
      "rungs demoted per recovery");
  add("core.useful_iter_frac", executed > 0 ? useful / executed : 0, "ratio",
      "iterations / executed, loop solves");
  const double tu = median(untraced), tt = median(traced);
  add("trace.solve_s_untraced", tu, "s", "median of " + std::to_string(untraced.size()));
  add("trace.solve_s_traced", tt, "s", "median of " + std::to_string(traced.size()));
  add("trace.overhead_ms", 1e3 * (tt - tu), "ms", "traced minus untraced solve_s");
  print_exact(exact);
  std::printf("trace: %zu spans%s%s\n", tracer_.size(),
              args_.trace_out.empty() ? "" : " -> ", args_.trace_out.c_str());
  return m;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload plain|esr|esrp_faults|imcr_faults "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        args.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        args.seed = std::stoull(v);
      } else if (k == "--seconds") {
        args.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (k == "--trace-out") {
        args.trace_out = v;
      } else {
        return usage("unknown option");
      }
    } catch (const std::exception&) {
      return usage("bad number");
    }
  }
  if (!have_workload) return usage("--workload is required");
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (args.workload == cand.name) w = &cand;
  if (w == nullptr) return usage("unknown workload");

  set_num_threads(1);
  try {
    Bench bench(args, *w);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
