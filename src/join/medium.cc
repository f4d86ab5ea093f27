#include "join/medium.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "query/parser.h"

namespace aspen {
namespace join {

SharedMedium::SharedMedium(const net::Topology* topology,
                           net::NetworkOptions options,
                           MediumOptions medium_options)
    : topology_(topology),
      net_(topology, options),
      primary_(routing::RoutingTree::Build(*topology, 0)),
      medium_opts_(medium_options) {
  ASPEN_CHECK(medium_opts_.knobs.sample_interval > 0);
  net_.set_parent_resolver(&primary_);
  // Dispatch by the dense executor table. A frame of a departed query (its
  // slot is null) terminates silently — the network still releases its
  // payload and charges its traffic to the departed id's counters, which
  // were already finalized into the ledger.
  net_.set_delivery_handler([this](const net::Message& m, net::NodeId at) {
    JoinExecutor* e = FindExecutor(m.query_id);
    if (e != nullptr) e->OnDeliverMsg(m, at);
  });
  net_.set_drop_handler(
      [this](const net::Message& m, net::NodeId at, net::NodeId next) {
        JoinExecutor* e = FindExecutor(m.query_id);
        if (e != nullptr) e->OnDrop(m, at, next);
      });
  net_.set_snoop_handler([this](const net::Message& m, net::NodeId snooper,
                                net::NodeId from, net::NodeId to) {
    JoinExecutor* e = FindExecutor(m.query_id);
    if (e != nullptr) e->OnSnoop(m, snooper, from, to);
  });
  // Eager scheduler: scenario drivers can attach before the first query.
  sched_ = std::make_unique<sim::CycleScheduler>(
      &net_, medium_opts_.knobs.sample_interval, medium_opts_.knobs.shards);
  // The medium participates in its own scheduler (ahead of every query) to
  // sweep retired routes at epoch boundaries; see OnDeliver.
  sched_->Attach(this);
  executors_.resize(1);  // slot 0 unused: query ids start at 1
  admitted_cycle_.resize(1, 0);
}

SharedMedium::~SharedMedium() = default;

JoinExecutor* SharedMedium::FindExecutor(int query_id) {
  if (query_id <= 0 ||
      static_cast<size_t>(query_id) >= executors_.size()) {
    return nullptr;
  }
  return executors_[query_id].get();
}

JoinExecutor& SharedMedium::executor(int query_id) {
  JoinExecutor* e = FindExecutor(query_id);
  ASPEN_CHECK(e != nullptr);
  return *e;
}

std::vector<int> SharedMedium::live_query_ids() const {
  std::vector<int> ids;
  ids.reserve(live_queries_);
  for (size_t id = 1; id < executors_.size(); ++id) {
    if (executors_[id] != nullptr) ids.push_back(static_cast<int>(id));
  }
  return ids;
}

int SharedMedium::AcquireQueryId() {
  // Prefer the smallest retired id whose straggler frames have drained —
  // deterministic (content-driven), and it keeps the executor table dense.
  for (size_t i = 0; i < retired_ids_.size(); ++i) {
    const int id = retired_ids_[i];
    if (net_.HasQueryTrafficInFlight(id)) continue;
    retired_ids_.erase(retired_ids_.begin() + i);
    // The departed tenant's counters live on only in the ledger.
    net_.stats().ResetQuery(id);
    return id;
  }
  const int id = next_query_id_++;
  if (static_cast<size_t>(id) >= executors_.size()) {
    executors_.resize(id + 1);
    admitted_cycle_.resize(id + 1, 0);
  }
  return id;
}

Result<JoinExecutor*> SharedMedium::TryAddQuery(
    const workload::Workload* workload, ExecutorOptions options) {
  if (workload == nullptr) {
    return Status::InvalidArgument("TryAddQuery: null workload");
  }
  if (&workload->topology() != topology_) {
    return Status::InvalidArgument(
        "TryAddQuery: workload is over a different topology than the medium");
  }
  const int interval = workload->join_query().window.sample_interval;
  if (sched_->sample_interval() != interval) {
    return Status::InvalidArgument(
        "TryAddQuery: sample_interval " + std::to_string(interval) +
        " mismatches the medium's scheduler (" +
        std::to_string(sched_->sample_interval()) +
        ", fixed by MediumOptions at construction); all queries on one "
        "medium share the sampling clock");
  }
  const int id = AcquireQueryId();
  auto exec = std::make_unique<JoinExecutor>(workload, options, &net_, id);
  JoinExecutor* out = exec.get();
  out->medium_ = this;  // placement-sharing hooks (tree_mode == kShared)
  sched_->Attach(out);
  executors_[id] = std::move(exec);
  admitted_cycle_[id] = sched_->cycle();
  ++live_queries_;
  ++total_admitted_;
  return out;
}

Result<JoinExecutor*> SharedMedium::TryAddQuery(const QuerySpec& spec) {
  ASPEN_ASSIGN_OR_RETURN(query::JoinQuery q, query::ParseQuery(spec.sql));
  ASPEN_ASSIGN_OR_RETURN(
      workload::Workload wl,
      workload::Workload::FromQuery(topology_, std::move(q), spec.params,
                                    spec.seed));
  auto owned = std::make_unique<workload::Workload>(std::move(wl));
  // Admission goes through the one validated entry point; on failure the
  // parsed workload dies here and nothing is registered.
  ASPEN_ASSIGN_OR_RETURN(JoinExecutor * exec,
                         TryAddQuery(owned.get(), spec.options));
  owned_workloads_.emplace_back(exec->query_id(), std::move(owned));
  return exec;
}

Status SharedMedium::RemoveQuery(int query_id) {
  JoinExecutor* exec = FindExecutor(query_id);
  if (exec == nullptr) {
    return Status::NotFound("RemoveQuery: no live query with id " +
                            std::to_string(query_id));
  }
  // Finalize per-query metrics before teardown mutates anything. A query
  // that was admitted but never initiated never ran: it gets no ledger
  // entry (admission-rollback paths would otherwise record phantom
  // departures).
  if (exec->initiated()) {
    QueryRecord rec;
    rec.query_id = query_id;
    rec.admitted_cycle = admitted_cycle_[query_id];
    rec.removed_cycle = sched_->cycle();
    rec.stats = exec->Stats();
    ledger_.push_back(std::move(rec));
  }
  // Sharing detach/promotion must run before Shutdown: a promoted
  // subscriber re-references the departing owner's routes and copies its
  // window state while the owner still holds them — no retirement window
  // opens, and nothing is lost.
  DetachShared(query_id);
  ASPEN_RETURN_NOT_OK(exec->Shutdown());
  sched_->Detach(exec);
  executors_[query_id].reset();
  // A workload the medium built for this query (QuerySpec admission) dies
  // with it — after the executor, which borrowed it.
  for (size_t i = 0; i < owned_workloads_.size(); ++i) {
    if (owned_workloads_[i].first == query_id) {
      owned_workloads_.erase(owned_workloads_.begin() + i);
      break;
    }
  }
  retired_ids_.insert(
      std::lower_bound(retired_ids_.begin(), retired_ids_.end(), query_id),
      query_id);
  --live_queries_;
  return Status::OK();
}

Status SharedMedium::InitiateAll() {
  for (auto& exec : executors_) {
    if (exec == nullptr || exec->initiated()) continue;
    ASPEN_RETURN_NOT_OK(exec->Initiate());
  }
  // Executors must not leave a dangling resolver behind.
  net_.set_parent_resolver(&primary_);
  return Status::OK();
}

Status SharedMedium::RunCycles(int n) {
  if (live_queries_ == 0 && !medium_opts_.allow_idle) {
    return Status::FailedPrecondition("SharedMedium has no queries");
  }
  return sched_->RunCycles(n);
}

// ---- cross-query placement sharing ---------------------------------------------

uint64_t SharedMedium::FingerprintPair(const JoinExecutor& exec,
                                       const PairKey& pair) const {
  // Two queries share a pair's evaluation iff one computation provably
  // serves both: the fingerprint covers everything that shapes results —
  // the normalized predicate text, window shape, workload identity (seed
  // and generation parameters drive the sample stream), algorithm and its
  // feature/placement options, and the pair key itself.
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d), "double is 64-bit");
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  auto mix_str = [&mix](const std::string& s) {
    for (char c : s) mix(static_cast<uint8_t>(c));
    mix(0x1FFULL);  // terminator: no concatenation ambiguity
  };
  const workload::Workload& wl = *exec.workload_;
  const query::JoinQuery& q = wl.join_query();
  mix_str(q.where != nullptr ? q.where->ToString() : std::string());
  mix(static_cast<uint64_t>(q.window.size));
  mix(static_cast<uint64_t>(q.window.sample_interval));
  mix(q.window.time_based ? 1 : 0);
  mix(wl.seed());
  const ExecutorOptions& o = exec.opts_;
  mix_str(AlgorithmName(o.algorithm, o.features));
  mix_double(o.assumed.sigma_s);
  mix_double(o.assumed.sigma_t);
  mix_double(o.assumed.sigma_st);
  mix(o.oracle ? 1 : 0);
  mix(static_cast<uint64_t>(o.summary_type));
  // Two queries that adapt differently must not ride one placement: a
  // subscriber's loop settings would silently be the owner's.
  mix(static_cast<uint64_t>(o.knobs.reopt_interval));
  mix_double(o.knobs.reopt_threshold);
  mix(static_cast<uint64_t>(o.knobs.counter_reset_interval));
  mix(static_cast<uint64_t>(o.num_trees));
  mix(o.mesh_mode ? 1 : 0);
  mix_double(o.loss_prob);
  mix(static_cast<uint64_t>(pair.s));
  mix(static_cast<uint64_t>(pair.t));
  return h;
}

int32_t SharedMedium::FindSharedEntry(uint64_t fp, const PairKey& pair) const {
  auto it = std::lower_bound(
      shared_index_.begin(), shared_index_.end(),
      std::make_pair(fp, static_cast<int32_t>(-1)));
  for (; it != shared_index_.end() && it->first == fp; ++it) {
    const SharedEntry& se = shared_entries_[it->second];
    if (se.owner != 0 && se.pair == pair) return it->second;
  }
  return -1;
}

int32_t SharedMedium::AllocSharedEntry() {
  if (!free_shared_entries_.empty()) {
    const int32_t e = free_shared_entries_.back();
    free_shared_entries_.pop_back();
    return e;
  }
  shared_entries_.emplace_back();
  return static_cast<int32_t>(shared_entries_.size() - 1);
}

void SharedMedium::FreeSharedEntry(int32_t e) {
  SharedEntry& se = shared_entries_[e];
  auto it = std::lower_bound(shared_index_.begin(), shared_index_.end(),
                             std::make_pair(se.fp, e));
  if (it != shared_index_.end() && it->first == se.fp && it->second == e) {
    shared_index_.erase(it);
  }
  se.owner = 0;
  se.fp = 0;
  se.subscribers.clear();
  free_shared_entries_.push_back(e);
}

int SharedMedium::num_shared_placements() const {
  int n = 0;
  for (const SharedEntry& se : shared_entries_) {
    if (se.owner != 0 && !se.subscribers.empty()) ++n;
  }
  return n;
}

void SharedMedium::ClaimPairs(JoinExecutor* exec) {
  const int qid = exec->query_id_;
  for (size_t i = 0; i < exec->placements_.size(); ++i) {
    JoinExecutor::PairPlacement& pl = exec->placements_[i];
    const uint64_t fp = FingerprintPair(*exec, pl.pair);
    const int32_t found = FindSharedEntry(fp, pl.pair);
    if (found >= 0) {
      SharedEntry& se = shared_entries_[found];
      JoinExecutor* owner = FindExecutor(se.owner);
      ASPEN_CHECK(owner != nullptr && owner->initiated());
      se.subscribers.insert(std::lower_bound(se.subscribers.begin(),
                                             se.subscribers.end(), qid),
                            qid);
      pl.shared_owner = se.owner;
      exec->SuppressSharedPair(static_cast<int32_t>(i));
      JoinExecutor::PairPlacement* opl = owner->MutablePlacement(pl.pair);
      ASPEN_CHECK(opl != nullptr);
      if (opl->shared_entry < 0) {
        opl->shared_entry = found;
        ++owner->num_fanout_pairs_;
      }
    } else {
      const int32_t e = AllocSharedEntry();
      SharedEntry& se = shared_entries_[e];
      se.fp = fp;
      se.pair = pl.pair;
      se.owner = qid;
      se.subscribers.clear();
      shared_index_.insert(std::lower_bound(shared_index_.begin(),
                                            shared_index_.end(),
                                            std::make_pair(fp, e)),
                           {fp, e});
    }
  }
}

void SharedMedium::FanOutSharedResult(int32_t entry, int count,
                                      int sample_cycle) {
  const SharedEntry& se = shared_entries_[entry];
  for (int qid : se.subscribers) {
    JoinExecutor* sub = executors_[qid].get();
    if (sub != nullptr) sub->AccountSharedResult(count, sample_cycle);
  }
}

void SharedMedium::DetachShared(int query_id) {
  if (shared_entries_.empty()) return;
  JoinExecutor* dying = FindExecutor(query_id);
  for (size_t e = 0; e < shared_entries_.size(); ++e) {
    SharedEntry& se = shared_entries_[e];
    if (se.owner == 0) continue;
    if (se.owner == query_id) {
      if (se.subscribers.empty()) {
        FreeSharedEntry(static_cast<int32_t>(e));
        continue;
      }
      // Promote the smallest subscriber: it adopts the departing owner's
      // placement geometry, route references and window contents, so the
      // shared stream continues without a gap. Promotion traffic (tree
      // rebuilds) is charged to the promoted query.
      const int promote = se.subscribers.front();
      se.subscribers.erase(se.subscribers.begin());
      JoinExecutor* np = FindExecutor(promote);
      ASPEN_CHECK(np != nullptr && dying != nullptr);
      {
        net::TrafficStats::QueryScope scope(&net_.stats(), promote);
        np->AdoptSharedPlacement(dying, se.pair);
      }
      se.owner = promote;
      if (!se.subscribers.empty()) {
        JoinExecutor::PairPlacement* npl = np->MutablePlacement(se.pair);
        ASPEN_CHECK(npl != nullptr);
        npl->shared_entry = static_cast<int32_t>(e);
        ++np->num_fanout_pairs_;
        for (int qid : se.subscribers) {
          JoinExecutor* sub = FindExecutor(qid);
          if (sub != nullptr) {
            JoinExecutor::PairPlacement* spl = sub->MutablePlacement(se.pair);
            if (spl != nullptr) spl->shared_owner = promote;
          }
        }
      }
    } else {
      auto it = std::lower_bound(se.subscribers.begin(), se.subscribers.end(),
                                 query_id);
      if (it != se.subscribers.end() && *it == query_id) {
        se.subscribers.erase(it);
        if (se.subscribers.empty()) {
          // Sole ownership restored: the owner stops fanning out.
          JoinExecutor* owner = FindExecutor(se.owner);
          if (owner != nullptr) {
            JoinExecutor::PairPlacement* opl =
                owner->MutablePlacement(se.pair);
            if (opl != nullptr && opl->shared_entry >= 0) {
              opl->shared_entry = -1;
              --owner->num_fanout_pairs_;
            }
          }
        }
      }
    }
  }
}

Status SharedMedium::OnSample(int cycle) {
  (void)cycle;
  return Status::OK();
}

Status SharedMedium::OnDeliver(int cycle) {
  (void)cycle;
  // The medium's deliver hook runs on the scheduler thread.
  common::SequentialPhaseScope seq;
  // Epoch boundary check: the medium's deliver hook runs right after the
  // transmit phase, before any query's deliver emits new result frames. If
  // no frame is in flight, nothing can reference a retired route — sweep.
  // (Under loss the transmit window may end with stragglers; the sweep
  // simply waits for a later quiet observation.)
  if (!net_.HasTrafficInFlight()) net_.routes().SweepRetired();
  return Status::OK();
}

Status SharedMedium::OnLearn(int cycle) {
  (void)cycle;
  return Status::OK();
}

}  // namespace join
}  // namespace aspen
