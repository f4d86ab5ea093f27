// detlint self-test fixture: the lint must stay completely silent here.
// Exercises every suppression and every near-miss the rules must not flag.
// Lint input only — never compiled.
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace fixture {

struct Obj {
  int x;
};

// detlint: order-insensitive(point lookups and erases only; never iterated)
std::unordered_map<int, int> lookup_only;

// Value-keyed ordered containers iterate in content order — always fine.
std::map<int, int> by_id;

inline int Sum(const std::vector<int>& v) {
  int s = 0;
  for (int x : v) s += x;  // ordered container, not DL002
  return s;
}

// Allocation outside a steady-state region is setup cost, not a violation.
inline std::unique_ptr<Obj> Make() { return std::make_unique<Obj>(); }

// detlint: steady-state begin
inline int Hot(const std::vector<int>& v, int i) {
  // Token mentions inside comments must not fire: new, malloc, rand().
  return v[static_cast<size_t>(i)];
}
// detlint: steady-state end

// String literals mentioning banned tokens must not fire either.
inline const char* Doc() { return "never calls rand() or time()"; }

// A shard hook that honors the discipline: no phase scope inside.
inline void OnSampleShard(int cycle, int shard, int lo, int hi) {
  (void)cycle;
  (void)shard;
  (void)lo;
  (void)hi;
}

// The commit that follows the shard passes runs on the scheduler thread:
// asserting the sequential capability there is the sanctioned pattern.
inline int OnSampleCommit(int cycle) {
  common::SequentialPhaseScope seq;
  return cycle;
}

// Words embedding banned identifiers must not fire.
inline int randomize_seed_label(int brand_time_stamp) { return brand_time_stamp; }

}  // namespace fixture
