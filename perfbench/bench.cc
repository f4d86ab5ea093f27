// One run of one benchmark workload: sets the workload up several times,
// measures whole rounds of it for about --seconds, checks every query's
// result count against the windowed-join reference (oracle.h) and prints
// one JSON object as its last line. perfbench/run.py drives this binary;
// README.md documents the workloads and metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every layer is measured from outside, by timing calls into public
// functions. With --trace 0 the only probe is a front scheduler participant
// that takes one timestamp per cycle boundary and applies the workload's
// scripted arrivals and departures. With --trace 1 a back participant adds
// the phase boundaries, and the setup layers are timed call by call.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "oracle.h"
#include "routing/multi_tree.h"
#include "routing/routing_tree.h"
#include "workload/workload.h"

namespace perfbench {

extern std::atomic<bool> g_count_allocs;
extern std::atomic<uint64_t> g_allocs;

namespace {

using aspen::Status;
using aspen::common::TreeMode;
using aspen::join::JoinExecutor;
using aspen::join::SharedMedium;
using aspen::workload::Workload;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

/// printf-style formatting into a std::string.
template <typename... A>
std::string Fmt(const char* fmt, A... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string out(static_cast<size_t>(std::max(n, 0)) + 1, '\0');
  std::snprintf(out.data(), out.size(), fmt, args...);
  out.pop_back();
  return out;
}

/// Switches allocation counting off for a scope (admission and removal
/// calls are not part of the steady-state count).
class AllocPause {
 public:
  AllocPause() : was_(g_count_allocs.exchange(false)) {}
  ~AllocPause() { g_count_allocs.store(was_); }
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool was_;
};

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// splitmix64: the benchmark's own generator for seed-derived inputs.
uint64_t Mix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
int Uniform(uint64_t* state, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(Mix(state) % static_cast<uint64_t>(hi - lo + 1));
}

// ---- workload definitions ---------------------------------------------------

/// One query of a workload: one benchmark operation.
struct QueryPlan {
  int tmpl = 0;
  /// Admission cycle; 0 = admitted during setup, before the first cycle.
  int admit = 0;
  /// Removal cycle (removed at that cycle's sample phase); -1 = live to the
  /// end of the round.
  int remove = -1;
};

struct Spec {
  std::string name;
  int grid_side = 100;
  int num_pairs = 200;
  std::vector<uint64_t> template_seeds;
  /// One query on an executor that owns its network (no medium).
  bool standalone = false;
  TreeMode mode = TreeMode::kPerSource;
  bool exact_summaries = false;
  /// Set-ups per run before the first round (setup_s is their median).
  int setups = 3;
  /// Cycles run (and not measured) before the measured block.
  int warmup_cycles = 0;
  int measured_cycles = 0;
  /// First cycle of the measured block (counted from 0) whose allocations
  /// count in mem.steady_allocs: the cycles from here on come after every
  /// scripted arrival and departure has settled.
  int settled_from = 0;
  std::vector<QueryPlan> queries;
};

constexpr double kGridSpacing = 25.6;  // metres between grid neighbours

/// Short rounds: the host's speed drifts over tens of seconds, so a run's
/// medians are steadier over several measured blocks, each after its own
/// set-up, than over one long block of the same length. One shard: the
/// sharded kernel's per-step barriers turn that drift into swings of up to
/// 2x in cycle time (README.md, "Choices").
Spec MeshSpec() {
  Spec s;
  s.name = "mesh_100k";
  s.grid_side = 316;
  s.num_pairs = 5000;
  s.template_seeds = {7};
  s.standalone = true;
  s.exact_summaries = true;
  s.setups = 1;
  s.warmup_cycles = 15;
  s.measured_cycles = 30;
  s.queries = {{0, 0, -1}};
  return s;
}

/// Two residents plus 10 waves of 10 arrivals, 180 cycles apart, from
/// three 200-pair templates; then an 80-cycle settle and a 100-cycle tail.
/// Within a wave, arrival q comes at offset 9q and stays 80 cycles, and the
/// wave's templates are a fixed mix (4/3/3, rotating by wave) in seed-drawn
/// order. So the number of live queries over time and each template's share
/// of them, which set per-cycle load, admission cost and peak memory, are
/// the same for every seed; the seed decides which template runs when.
Spec ChurnSpec(uint64_t seed) {
  Spec s;
  s.name = "service_churn";
  s.template_seeds = {7, 8, 9};
  s.setups = 9;
  s.queries = {{0, 0, -1}, {1, 0, -1}};
  const int start = 40, waves = 10, per_wave = 10, period = 180, life = 80;
  uint64_t rng = 42 + seed;
  for (int w = 0; w < waves; ++w) {
    std::vector<int> mix(per_wave);
    for (int q = 0; q < per_wave; ++q) mix[q] = (q < 4 ? w : w + 1 + q % 2) % 3;
    for (int q = per_wave - 1; q > 0; --q) {
      std::swap(mix[q], mix[Uniform(&rng, 0, q)]);
    }
    for (int q = 0; q < per_wave; ++q) {
      const int admit = start + w * period + 9 * q;
      s.queries.push_back({mix[q], admit, admit + life});
    }
  }
  s.measured_cycles = start + waves * period + 80 + 100;
  s.settled_from = s.measured_cycles - 100;
  return s;
}

/// 16 templates x 4 resident copies, admitted round-robin so each
/// template's first copy owns its placements. The owner of template k
/// departs at cycle 20 + 2k, so its subscribers are promoted; mid-run copy
/// k arrives at cycle 60 + 2k and departs 60 cycles later. The round ends
/// at cycle 200, so most cycles run the same population (48 residents) and
/// the cycle-time median sits inside one mode; its last 40 cycles come 50
/// cycles after the last departure. The inputs do not depend on
/// the seed: every failing query here fails by a program fault (F2, F3),
/// and such a query must fail in every run.
Spec SharedSpec() {
  Spec s;
  s.name = "service_shared";
  s.num_pairs = 60;
  s.mode = TreeMode::kShared;
  const int templates = 16, copies = 4;
  for (int k = 0; k < templates; ++k) s.template_seeds.push_back(100 + k);
  for (int c = 0; c < copies; ++c) {
    for (int k = 0; k < templates; ++k) {
      s.queries.push_back({k, 0, c == 0 ? 20 + 2 * k : -1});
    }
  }
  for (int k = 0; k < templates; ++k) {
    s.queries.push_back({k, 60 + 2 * k, 120 + 2 * k});
  }
  s.measured_cycles = 200;
  s.settled_from = 160;
  return s;
}

/// F1 reproduction: a 220x220 grid, where some tuples need more than one
/// sampling interval to reach their join site.
Spec ReproF1Spec() {
  Spec s = MeshSpec();
  s.name = "repro_f1";
  s.grid_side = 220;
  s.num_pairs = 2420;
  s.warmup_cycles = 0;
  s.measured_cycles = 60;
  return s;
}

/// F2 reproduction: one mid-run copy of a resident 200-pair query on the
/// 10k grid, run under both tree modes.
Spec ReproF2Spec(TreeMode mode) {
  Spec s;
  s.name = mode == TreeMode::kShared ? "repro_f2_shared"
                                     : "repro_f2_per_source";
  s.template_seeds = {7};
  s.mode = mode;
  s.queries = {{0, 0, -1}, {0, 40, 100}};
  s.measured_cycles = 120;
  return s;
}

/// F3 reproduction: the owner of a shared placement departs mid-run while
/// its subscriber stays live.
Spec ReproF3Spec() {
  Spec s;
  s.name = "repro_f3_shared";
  s.template_seeds = {7};
  s.mode = TreeMode::kShared;
  s.queries = {{0, 0, 60}, {0, 0, -1}};
  s.measured_cycles = 120;
  return s;
}

// ---- measurements -----------------------------------------------------------

struct Samples {
  std::vector<double> setup_s, topology_ms, generate_ms, pair_enum_ms,
      substrate_ms;
  std::vector<double> admit_ms, initiate_ms, remove_ms;
  std::vector<double> cycle_ms, sample_ms, transmit_ms, deliver_ms, learn_ms;
  double phase_cycle_sum = 0, phase_gap_sum = 0, transmit_sum = 0;
  double measured_wall = 0;
  int64_t measured_cycles = 0;
  std::vector<double> round_cycles_per_s;
  uint64_t messages = 0, bytes = 0, steps = 0, results = 0;
  size_t routes_live_peak = 0, payload_slots = 0, frame_slots = 0;
  int shared_placements_peak = 0;
  uint64_t steady_allocs = 0;
};

/// Per-cycle timestamps of the measured block (index = cycle - first).
struct CycleLog {
  int first = 0;
  std::vector<double> start, admin, sample_begin, sample_end, deliver_begin,
      deliver_end, learn_end;
  void Reset(int first_cycle, int n) {
    first = first_cycle;
    for (auto* v : {&start, &admin, &sample_begin, &sample_end, &deliver_begin,
                    &deliver_end, &learn_end}) {
      v->assign(n, 0.0);
    }
  }
  int Index(int cycle) const {
    const int i = cycle - first;
    return i >= 0 && i < static_cast<int>(start.size()) ? i : -1;
  }
};

/// Outcome of one query (one operation) in one round.
struct QueryState {
  JoinExecutor* exec = nullptr;  // live executor, else nullptr
  bool admitted = false;
  std::string admit_error;
  bool subscriber = false;  // claimed a co-resident owner's placement
  int max_hops = 0;         // longest producer -> join-site path segment
  int removed_at = -1;
  uint64_t results = 0;
};

class Instance;

/// Front participant: one timestamp per cycle boundary, the scripted
/// arrivals and departures, and (traced) the end of the transmit phase.
class FrontProbe : public aspen::sim::CycleParticipant {
 public:
  FrontProbe(Instance* inst, CycleLog* log, bool traced)
      : inst_(inst), log_(log), traced_(traced) {}
  Status OnSample(int cycle) override;
  Status OnDeliver(int cycle) override {
    const int i = log_->Index(cycle);
    if (traced_ && i >= 0) log_->deliver_begin[i] = Now();
    return Status::OK();
  }
  Status OnLearn(int) override { return Status::OK(); }

 private:
  Instance* inst_;
  CycleLog* log_;
  bool traced_;
};

/// Back participant (traced runs only): ends of the sample, deliver and
/// learn phases, plus the per-cycle occupancy counters.
class BackProbe : public aspen::sim::CycleParticipant {
 public:
  BackProbe(Instance* inst, CycleLog* log) : inst_(inst), log_(log) {}
  Status OnSample(int cycle) override {
    const int i = log_->Index(cycle);
    if (i >= 0) log_->sample_end[i] = Now();
    return Status::OK();
  }
  Status OnDeliver(int cycle) override {
    const int i = log_->Index(cycle);
    if (i >= 0) log_->deliver_end[i] = Now();
    return Status::OK();
  }
  Status OnLearn(int cycle) override;

 private:
  Instance* inst_;
  CycleLog* log_;
};

/// One set-up copy of a workload: topology, templates, host (executor or
/// medium) and the queries admitted at setup.
class Instance {
 public:
  Instance(const Spec& spec, bool traced, Samples* samples)
      : spec_(spec), traced_(traced), samples_(samples),
        front_(this, &log_, traced), back_(this, &log_) {}

  /// Builds everything up to the first sampling cycle; returns its seconds.
  double Setup() {
    const double t0 = Now();
    const int side = spec_.grid_side;
    auto topo = aspen::net::Topology::Grid(side, side, kGridSpacing * side);
    CheckOk(topo.status(), "topology");
    topo_ = std::make_unique<aspen::net::Topology>(std::move(*topo));
    const double t_gen = Now();
    templates_.reserve(spec_.template_seeds.size());
    for (uint64_t seed : spec_.template_seeds) {
      auto wl = Workload::MakeQuery0(topo_.get(), Selectivity(),
                                     spec_.num_pairs, /*window=*/3, seed);
      CheckOk(wl.status(), "workload");
      templates_.push_back(std::move(*wl));
    }
    const double t_host = Now();
    if (traced_) {
      samples_->topology_ms.push_back(1e3 * (t_gen - t0));
      samples_->generate_ms.push_back(1e3 * (t_host - t_gen));
    }
    states_.assign(spec_.queries.size(), QueryState{});
    if (spec_.standalone) {
      standalone_ = std::make_unique<JoinExecutor>(&templates_[0],
                                                   ExecOptions());
      const double a0 = Now();
      CheckOk(standalone_->Initiate(), "initiate");
      const double ms = 1e3 * (Now() - a0);
      samples_->admit_ms.push_back(ms);
      if (traced_) samples_->initiate_ms.push_back(ms);
      QueryState& q = states_[0];
      q.exec = standalone_.get();
      q.admitted = true;
      q.max_hops = MaxHops(*q.exec);
      sched_ = standalone_->scheduler();
      net_ = &standalone_->network();
    } else {
      aspen::join::MediumOptions mopts;
      mopts.knobs.tree_mode = spec_.mode;
      mopts.allow_idle = true;
      medium_ = std::make_unique<SharedMedium>(topo_.get(),
                                               aspen::net::NetworkOptions{},
                                               mopts);
      sched_ = medium_->scheduler();
      net_ = &medium_->network();
      for (size_t i = 0; i < spec_.queries.size(); ++i) {
        if (spec_.queries[i].admit == 0) Admit(static_cast<int>(i));
      }
    }
    const double setup_s = Now() - t0;
    if (traced_) TimeSetupLayers();
    // Probes go last so the separately timed calls above stay out of the
    // set-up time. The front probe precedes every query; the back probe
    // follows them (and is moved behind each mid-run admission).
    sched_->AttachFront(&front_);
    if (traced_) sched_->Attach(&back_);
    BuildEventList();
    return setup_s;
  }

  /// Runs one round: warm-up, then the measured block.
  void RunRound() {
    if (spec_.warmup_cycles > 0) {
      log_.Reset(-1, 0);
      CheckOk(Run(spec_.warmup_cycles), "warm-up cycles");
    }
    const int m = spec_.measured_cycles;
    log_.Reset(sched_->cycle(), m);
    const uint64_t bytes0 = net_->stats().TotalBytesSent();
    const uint64_t msgs0 = net_->stats().TotalMessagesSent();
    const int64_t steps0 = net_->now();
    const uint64_t results0 = TotalResults();
    const double t0 = Now();
    CheckOk(Run(m), "cycles");
    const double wall = Now() - t0;
    g_count_allocs.store(false);
    samples_->steady_allocs = std::max<uint64_t>(samples_->steady_allocs,
                                                 g_allocs.load() - allocs0_);
    samples_->measured_wall += wall;
    samples_->measured_cycles += m;
    samples_->round_cycles_per_s.push_back(m / wall);
    samples_->bytes += net_->stats().TotalBytesSent() - bytes0;
    samples_->messages += net_->stats().TotalMessagesSent() - msgs0;
    samples_->steps += static_cast<uint64_t>(net_->now() - steps0);
    for (size_t i = 0; i < states_.size(); ++i) {
      QueryState& q = states_[i];
      if (q.exec != nullptr) q.results = q.exec->results();
    }
    samples_->results += TotalResults() - results0;
    samples_->payload_slots = net_->payloads().capacity();
    samples_->frame_slots = net_->frame_slab_capacity();
    RecordCycles(m);
    if (spec_.standalone) {
      // The standalone query's teardown stands in for its removal.
      const double r0 = Now();
      CheckOk(standalone_->Shutdown(), "shutdown");
      const double ms = 1e3 * (Now() - r0);
      if (traced_) samples_->remove_ms.push_back(ms);
      states_[0].exec = nullptr;
    }
  }

  const std::vector<QueryState>& states() const { return states_; }
  const std::vector<Workload>& templates() const { return templates_; }
  uint64_t total_bytes() const { return net_->stats().TotalBytesSent(); }
  uint64_t total_messages() const { return net_->stats().TotalMessagesSent(); }
  int end_cycle() const { return sched_->cycle(); }
  int sample_interval() const { return sched_->sample_interval(); }

 private:
  friend class FrontProbe;
  friend class BackProbe;

  static aspen::workload::SelectivityParams Selectivity() {
    return {0.5, 0.5, 0.2};
  }

  aspen::join::ExecutorOptions ExecOptions() const {
    aspen::join::ExecutorOptions o;
    o.algorithm = aspen::join::Algorithm::kInnet;
    o.features = aspen::join::InnetFeatures::Cm();
    o.assumed = Selectivity();
    o.mesh_mode = true;
    o.knobs.tree_mode = spec_.mode;
    if (spec_.exact_summaries) {
      o.summary_type = aspen::routing::SummaryType::kExact;
    }
    return o;
  }

  static int MaxHops(const JoinExecutor& exec) {
    int hops = 0;
    for (const auto& pl : exec.placements()) {
      if (pl.path.empty() || pl.path_index < 0) continue;
      const int n = static_cast<int>(pl.path.size());
      hops = std::max({hops, pl.path_index, n - 1 - pl.path_index});
    }
    return hops;
  }

  Status Run(int cycles) {
    return spec_.standalone ? standalone_->RunCycles(cycles)
                            : medium_->RunCycles(cycles);
  }

  /// The setup layers the untraced set-up time covers only inside other
  /// calls, timed on their own (traced runs only; extra work).
  void TimeSetupLayers() {
    double enum_ms = 0;
    for (const Workload& wl : templates_) {
      const double t0 = Now();
      const auto pairs = wl.AllJoinPairs();
      enum_ms += 1e3 * (Now() - t0);
      if (pairs.empty()) Die("template without join pairs");
    }
    samples_->pair_enum_ms.push_back(enum_ms);
    const double t0 = Now();
    const auto tree = aspen::routing::RoutingTree::Build(*topo_, 0);
    aspen::routing::MultiTreeOptions mt;
    mt.num_trees = ExecOptions().num_trees;
    aspen::routing::MultiTree multi(topo_.get(), mt, nullptr);
    samples_->substrate_ms.push_back(1e3 * (Now() - t0));
    if (tree.num_nodes() != multi.primary().num_nodes()) {
      Die("routing substrate size mismatch");
    }
  }

  /// Admits query `i` now; returns seconds spent in the admission calls.
  double Admit(int i) {
    QueryState& q = states_[i];
    const double t0 = Now();
    auto added = medium_->TryAddQuery(&templates_[spec_.queries[i].tmpl],
                                      ExecOptions());
    if (!added.ok()) {
      q.admit_error = added.status().ToString();
      return Now() - t0;
    }
    JoinExecutor* exec = *added;
    const double t1 = Now();
    const Status st = exec->Initiate();
    const double t2 = Now();
    samples_->admit_ms.push_back(1e3 * (t2 - t0));
    if (traced_) samples_->initiate_ms.push_back(1e3 * (t2 - t1));
    if (!st.ok()) {
      q.admit_error = st.ToString();
      CheckOk(medium_->RemoveQuery(exec->query_id()),
              "removal after a failed admission");
      return Now() - t0;
    }
    q.exec = exec;
    q.admitted = true;
    q.max_hops = MaxHops(*exec);
    for (const auto& pl : exec->placements()) {
      if (pl.shared_owner >= 0) q.subscriber = true;
    }
    return t2 - t0;
  }

  /// Removes query `i` now; returns seconds spent in RemoveQuery.
  double Remove(int i, int cycle) {
    QueryState& q = states_[i];
    if (q.exec == nullptr) return 0.0;
    const double t0 = Now();
    CheckOk(medium_->RemoveQuery(q.exec->query_id()), "remove");
    const double s = Now() - t0;
    if (traced_) samples_->remove_ms.push_back(1e3 * s);
    q.results = medium_->ledger().back().stats.results;
    q.removed_at = cycle;
    q.exec = nullptr;
    return s;
  }

  void BuildEventList() {
    events_.clear();
    for (size_t i = 0; i < spec_.queries.size(); ++i) {
      const QueryPlan& p = spec_.queries[i];
      if (p.admit > 0) events_.push_back({p.admit, 1, static_cast<int>(i)});
      if (p.remove >= 0) events_.push_back({p.remove, 0, static_cast<int>(i)});
    }
    // Departures before arrivals within a cycle, each in plan order.
    std::sort(events_.begin(), events_.end());
    next_event_ = 0;
  }

  /// Applies the events scheduled for `cycle`; returns the seconds spent
  /// inside admission and removal calls.
  double ApplyEvents(int cycle) {
    if (next_event_ >= events_.size() ||
        std::get<0>(events_[next_event_]) != cycle) {
      return 0.0;
    }
    AllocPause pause;
    double spent = 0.0;
    bool admitted = false;
    for (; next_event_ < events_.size() &&
           std::get<0>(events_[next_event_]) == cycle;
         ++next_event_) {
      const auto& [c, arrive, i] = events_[next_event_];
      if (arrive == 1) {
        spent += Admit(i);
        admitted = true;
      } else {
        spent += Remove(i, c);
      }
    }
    if (admitted && traced_) {
      // Keep the back probe behind the newly attached executors.
      sched_->Detach(&back_);
      sched_->Attach(&back_);
    }
    return spent;
  }

  uint64_t TotalResults() const {
    uint64_t sum = 0;
    for (const QueryState& q : states_) {
      sum += q.exec != nullptr ? q.exec->results() : q.results;
    }
    return sum;
  }

  /// Folds the measured block's per-cycle log into the samples. The last
  /// cycle of the block has no closing boundary and is left out.
  void RecordCycles(int m) {
    for (int i = 0; i < m; ++i) {
      const bool closed = i + 1 < m;
      const double cycle =
          closed ? log_.start[i + 1] - log_.start[i] - log_.admin[i] : 0.0;
      if (closed) samples_->cycle_ms.push_back(1e3 * cycle);
      if (!traced_) continue;
      const double sample = log_.sample_end[i] - log_.sample_begin[i];
      const double transmit = log_.deliver_begin[i] - log_.sample_end[i];
      const double deliver = log_.deliver_end[i] - log_.deliver_begin[i];
      const double learn = log_.learn_end[i] - log_.deliver_end[i];
      samples_->transmit_sum += transmit;
      if (!closed) continue;
      samples_->sample_ms.push_back(1e3 * sample);
      samples_->transmit_ms.push_back(1e3 * transmit);
      samples_->deliver_ms.push_back(1e3 * deliver);
      samples_->learn_ms.push_back(1e3 * learn);
      samples_->phase_cycle_sum += cycle;
      samples_->phase_gap_sum += cycle - (sample + transmit + deliver + learn);
    }
  }

  const Spec& spec_;
  bool traced_;
  Samples* samples_;
  // The probes are declared before the host objects, so they outlive the
  // schedulers that point at them.
  CycleLog log_;
  FrontProbe front_;
  BackProbe back_;
  std::unique_ptr<aspen::net::Topology> topo_;
  std::vector<Workload> templates_;
  std::unique_ptr<JoinExecutor> standalone_;
  std::unique_ptr<SharedMedium> medium_;
  aspen::sim::CycleScheduler* sched_ = nullptr;
  aspen::net::Network* net_ = nullptr;
  std::vector<QueryState> states_;
  /// (cycle, 0 = departure / 1 = arrival, query index), sorted.
  std::vector<std::tuple<int, int, int>> events_;
  size_t next_event_ = 0;
  /// Allocation count when the settled cycles began.
  uint64_t allocs0_ = 0;
};

Status FrontProbe::OnSample(int cycle) {
  const double t = Now();
  const double admin = inst_->ApplyEvents(cycle);
  const int i = log_->Index(cycle);
  if (i >= 0 && i == inst_->spec_.settled_from) {
    inst_->allocs0_ = g_allocs.load();
    g_count_allocs.store(true);
  }
  if (i >= 0) {
    log_->start[i] = t;
    log_->admin[i] = admin;
    if (traced_) log_->sample_begin[i] = Now();
  }
  return Status::OK();
}

Status BackProbe::OnLearn(int cycle) {
  const int i = log_->Index(cycle);
  if (i < 0) return Status::OK();
  log_->learn_end[i] = Now();
  Samples* s = inst_->samples_;
  const auto& routes = inst_->net_->routes();
  s->routes_live_peak = std::max(
      s->routes_live_peak, routes.live_paths() + routes.live_multicasts());
  if (inst_->medium_ != nullptr) {
    s->shared_placements_peak = std::max(
        s->shared_placements_peak, inst_->medium_->num_shared_placements());
  }
  return Status::OK();
}

// ---- correctness ------------------------------------------------------------

struct Verdict {
  int attempted = 0;
  int failed = 0;
  bool correct = true;
  std::vector<std::string> messages;
};

/// Reference counts, cached by (template, fill_from, begin, end) across
/// queries and rounds.
class ReferenceCache {
 public:
  RefCount Get(const Workload& wl, int tmpl, int begin, int end) {
    return GetPrefilled(wl, tmpl, begin, begin, end);
  }
  RefCount GetPrefilled(const Workload& wl, int tmpl, int fill_from, int begin,
                        int end) {
    const auto key = std::make_tuple(tmpl, fill_from, begin, end);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    if (pairs_.size() <= static_cast<size_t>(tmpl)) pairs_.resize(tmpl + 1);
    if (pairs_[tmpl].empty()) pairs_[tmpl] = wl.AllJoinPairs();
    const RefCount r =
        ReferenceCountPrefilled(wl, pairs_[tmpl], fill_from, begin, end);
    cache_.emplace(key, r);
    return r;
  }

 private:
  std::map<std::tuple<int, int, int, int>, RefCount> cache_;
  std::vector<std::vector<Pair>> pairs_;
};

/// F1 changes a count by a small share of it (0.38% over a mesh_100k round,
/// 0.07% on repro_f1); a larger deviation is not attributed to it.
constexpr double kF1MaxShare = 0.01;

/// Earliest admission among the other copies of query `i`'s template that
/// were live when it was admitted (the placement it can subscribe to has
/// windows filled since then); -1 when there is none.
int SharedSince(const Spec& spec, const Instance& inst, size_t i) {
  const QueryPlan& plan = spec.queries[i];
  int since = -1;
  for (size_t j = 0; j < spec.queries.size(); ++j) {
    const QueryPlan& o = spec.queries[j];
    const QueryState& os = inst.states()[j];
    if (j == i || o.tmpl != plan.tmpl || !os.admitted) continue;
    const bool live = o.admit <= plan.admit &&
                      (os.removed_at < 0 || os.removed_at > plan.admit);
    if (live && (since < 0 || o.admit < since)) since = o.admit;
  }
  return since;
}

/// Results query `i` would have produced in the last cycle of each owning
/// copy of its template that departed while it was live: what F3 may
/// drop. -1 when no owner departed then.
int64_t OwnersLastCycles(const Spec& spec, const Instance& inst, size_t i,
                         int stop, ReferenceCache* refs) {
  const QueryPlan& plan = spec.queries[i];
  int64_t owed = -1;
  for (size_t j = 0; j < spec.queries.size(); ++j) {
    const QueryState& o = inst.states()[j];
    if (spec.queries[j].tmpl != plan.tmpl || o.subscriber ||
        o.removed_at <= plan.admit || o.removed_at >= stop) {
      continue;
    }
    const RefCount r = refs->Get(inst.templates()[plan.tmpl], plan.tmpl,
                                 plan.admit, o.removed_at);
    owed = std::max<int64_t>(owed, 0) +
           static_cast<int64_t>(r.full - r.without_last);
  }
  return owed;
}

/// Checks one finished round against the reference and the workload's
/// own properties, and attributes each failure to a known fault.
void CheckRound(const Spec& spec, const Instance& inst, ReferenceCache* refs,
                Verdict* v) {
  const int end = inst.end_cycle();
  const int interval = inst.sample_interval();
  // (template, admitted, removed) -> result count of the first such copy.
  std::map<std::tuple<int, int, int>, std::pair<uint64_t, size_t>> copies;
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const QueryPlan& plan = spec.queries[i];
    const QueryState& q = inst.states()[i];
    ++v->attempted;
    const std::string head =
        Fmt("%s query %zu (template %d, cycles [%d, %d))", spec.name.c_str(),
            i, plan.tmpl, plan.admit, q.removed_at >= 0 ? q.removed_at : end);
    if (!q.admitted) {
      ++v->failed;
      v->correct = false;
      v->messages.push_back(head + ": admission failed: " +
                            q.admit_error + " -> unattributed");
      continue;
    }
    const bool departed = q.removed_at >= 0;
    const int stop = departed ? q.removed_at : end;
    const Workload& wl = inst.templates()[plan.tmpl];
    const RefCount ref = refs->Get(wl, plan.tmpl, plan.admit, stop);
    const uint64_t lo = departed ? ref.without_last : ref.full;
    const bool ok = q.results >= lo && q.results <= ref.full;
    const auto key = std::make_tuple(plan.tmpl, plan.admit, stop);
    auto [it, fresh] = copies.emplace(key, std::make_pair(q.results, i));
    if (!fresh && it->second.first != q.results) {
      v->correct = false;
      v->messages.push_back(
          Fmt("%s: %llu results, but copy %zu live over the same cycles has "
              "%llu",
              head.c_str(), static_cast<unsigned long long>(q.results),
              it->second.second,
              static_cast<unsigned long long>(it->second.first)));
    }
    if (ok) continue;
    ++v->failed;
    // Each fault is attributed only within the limits of what it can do.
    // F2: a shared-mode subscriber admitted mid-run is credited with
    // results joined against tuples sampled before its admission, at most
    // as if its windows had filled since the copy it joined was admitted
    // and it had been live one cycle earlier (the previous cycle's results,
    // in flight when it subscribes, are fanned out to it as well).
    // F3: a subscriber loses the results its departing owner still had in
    // flight, at most one cycle's worth per departed owner.
    // F1: tuples needing more than one sampling interval to reach their
    // join site are windowed in arrival order, which moves the count by a
    // small share.
    const bool shared = spec.mode == TreeMode::kShared && q.subscriber;
    const int64_t results = static_cast<int64_t>(q.results);
    const int since = shared ? SharedSince(spec, inst, i) : -1;
    const int64_t owed =
        shared ? OwnersLastCycles(spec, inst, i, stop, refs) : -1;
    const double slack = kF1MaxShare * static_cast<double>(ref.full);
    const char* fault = "unattributed";
    std::string limit;
    if (since >= 0 && since < plan.admit && q.results > ref.full) {
      const uint64_t hi =
          refs->GetPrefilled(wl, plan.tmpl, since, plan.admit - 1, stop).full;
      limit = Fmt(", F2 limit %llu", static_cast<unsigned long long>(hi));
      if (q.results <= hi) {
        fault = "F2 (mid-run subscriber inherits pre-admission windows)";
      }
    } else if (owed >= 0 && q.results < lo) {
      const int64_t floor = static_cast<int64_t>(lo) - owed;
      limit = Fmt(", F3 limit %lld", static_cast<long long>(floor));
      if (results >= floor) {
        fault = "F3 (owner departure drops results owed to subscribers)";
      }
    } else if (!q.subscriber && q.max_hops > interval) {
      limit = Fmt(", F1 limit +-%.0f", slack);
      if (static_cast<double>(results) >= static_cast<double>(lo) - slack &&
          static_cast<double>(results) <=
              static_cast<double>(ref.full) + slack) {
        fault = "F1 (late tuples windowed in arrival order)";
      }
    }
    if (std::strcmp(fault, "unattributed") == 0) v->correct = false;
    v->messages.push_back(
        Fmt("%s: observed %llu, reference [%llu, %llu]%s, longest producer "
            "path %d hops -> FAILED, %s",
            head.c_str(), static_cast<unsigned long long>(q.results),
            static_cast<unsigned long long>(lo),
            static_cast<unsigned long long>(ref.full), limit.c_str(),
            q.max_hops, fault));
  }
}

// ---- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 15;
  bool traced = false;
  int setups = 0;  // 0 = the workload's own count
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* val = argv[i + 1];
    if (k == "--workload") {
      a.workload = val;
    } else if (k == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(val);
    } else if (k == "--trace") {
      a.traced = std::strcmp(val, "1") == 0;
    } else if (k == "--setups") {
      a.setups = std::max(0, std::atoi(val));
    } else {
      Die("unknown argument " + k);
    }
  }
  if (argc % 2 != 1) Die("arguments come in --name value pairs");
  return a;
}

Spec SpecFor(const Args& a) {
  if (a.workload == "mesh_100k") return MeshSpec();
  if (a.workload == "service_churn") return ChurnSpec(a.seed);
  if (a.workload == "service_shared") return SharedSpec();
  if (a.workload == "repro_f1") return ReproF1Spec();
  if (a.workload == "repro_f2_shared") return ReproF2Spec(TreeMode::kShared);
  if (a.workload == "repro_f2_per_source") {
    return ReproF2Spec(TreeMode::kPerSource);
  }
  if (a.workload == "repro_f3_shared") return ReproF3Spec();
  Die("unknown workload '" + a.workload + "'");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Spec spec = SpecFor(args);
  Samples samples;
  ReferenceCache refs;
  Verdict verdict;  // round 1's counts; every later round must match them
  std::vector<uint64_t> digest, first_digest;
  int rounds = 0;

  // Set up `setups` times (the median is setup_s); measure rounds on the
  // last copy, and on a fresh copy per further round, for about --seconds
  // of measured time. Every round is the same set of queries.
  std::unique_ptr<Instance> inst;
  const int setups = args.setups > 0 ? args.setups : spec.setups;
  for (int i = 0; i < setups; ++i) {
    inst.reset();
    inst = std::make_unique<Instance>(spec, args.traced, &samples);
    samples.setup_s.push_back(inst->Setup());
  }
  while (true) {
    inst->RunRound();
    ++rounds;
    Verdict round;
    CheckRound(spec, *inst, &refs, &round);
    if (rounds == 1) {
      verdict = round;
    } else {
      verdict.correct = verdict.correct && round.correct;
      verdict.messages.insert(verdict.messages.end(), round.messages.begin(),
                              round.messages.end());
    }
    digest.clear();
    for (const QueryState& q : inst->states()) digest.push_back(q.results);
    digest.push_back(inst->total_bytes());
    digest.push_back(inst->total_messages());
    if (rounds == 1) {
      first_digest = digest;
    } else if (digest != first_digest) {
      verdict.correct = false;
      verdict.messages.push_back("round " + std::to_string(rounds) +
                                 " differs from round 1");
    }
    // Whole rounds only: stop at the round count that brings the measured
    // time closest to --seconds.
    const double per_round = samples.measured_wall / rounds;
    if (samples.measured_wall + 0.5 * per_round >= args.seconds) break;
    inst.reset();
    inst = std::make_unique<Instance>(spec, args.traced, &samples);
    samples.setup_s.push_back(inst->Setup());
  }
  if (rounds > 1) {
    // Report every failure message once, not once per round.
    std::sort(verdict.messages.begin(), verdict.messages.end());
    verdict.messages.erase(
        std::unique(verdict.messages.begin(), verdict.messages.end()),
        verdict.messages.end());
  }
  for (const std::string& m : verdict.messages) std::printf("%s\n", m.c_str());

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const double cycles = static_cast<double>(samples.measured_cycles);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %d, ",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              rounds);
  std::printf("\"correct\": %s, \"attempted\": %d, \"failed\": %d, ",
              verdict.correct ? "true" : "false", verdict.attempted,
              verdict.failed);
  std::printf("\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %ld, ",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("\"digest\": [");
  for (size_t i = 0; i < first_digest.size(); ++i) {
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(first_digest[i]));
  }
  const Samples& sm = samples;
  const auto p50 = [](const std::vector<double>& v) {
    return Quantile(v, 0.5);
  };
  std::vector<std::pair<const char*, double>> metrics = {
      {"setup_s", p50(sm.setup_s)},
      {"cycles_per_s", p50(sm.round_cycles_per_s)},
      {"cycle_ms_p50", p50(sm.cycle_ms)},
      {"cycle_ms_p90", Quantile(sm.cycle_ms, 0.9)},
      {"admit_ms_p50", p50(sm.admit_ms)},
      {"peak_rss_mb", ru.ru_maxrss / 1024.0},
  };
  if (args.traced) {
    const double msgs = static_cast<double>(sm.messages);
    metrics.insert(
        metrics.end(),
        {{"net.topology_ms", p50(sm.topology_ms)},
         {"workload.generate_ms", p50(sm.generate_ms)},
         {"workload.pair_enum_ms", p50(sm.pair_enum_ms)},
         {"routing.substrate_ms", p50(sm.substrate_ms)},
         {"join.initiate_ms_p50", p50(sm.initiate_ms)},
         {"join.remove_ms_p50", p50(sm.remove_ms)},
         {"sim.sample_ms_p50", p50(sm.sample_ms)},
         {"sim.transmit_ms_p50", p50(sm.transmit_ms)},
         {"sim.deliver_ms_p50", p50(sm.deliver_ms)},
         {"sim.learn_ms_p50", p50(sm.learn_ms)},
         {"sim.phase_gap_pct", 100.0 * sm.phase_gap_sum / sm.phase_cycle_sum},
         {"net.messages_per_cycle", msgs / cycles},
         {"net.bytes_per_cycle", static_cast<double>(sm.bytes) / cycles},
         {"net.steps_per_cycle", static_cast<double>(sm.steps) / cycles},
         {"net.transmit_ns_per_message",
          1e9 * sm.transmit_sum / std::max(1.0, msgs)},
         {"net.routes_live_peak", static_cast<double>(sm.routes_live_peak)},
         {"net.payload_slots", static_cast<double>(sm.payload_slots)},
         {"net.frame_slots", static_cast<double>(sm.frame_slots)},
         {"join.results_per_cycle", static_cast<double>(sm.results) / cycles},
         {"join.shared_placements",
          static_cast<double>(sm.shared_placements_peak)},
         {"mem.steady_allocs", static_cast<double>(sm.steady_allocs)}});
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "", metrics[i].first,
                metrics[i].second);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
