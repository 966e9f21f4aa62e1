// Tests for the block-parallel DRF/HUG path (alloc/shard.h) and the
// thread pool under it:
//
//   * ThreadPool::run is reentrant from its own workers (the block pool's
//     nested-dispatch regression);
//   * drf@N and hug@N agree with the serial path to fp noise on local and
//     cross-group traces, stay feasible, and repeat bitwise;
//   * the registry accepts "@N" only for drf and hug, the SchedPerf shard
//     counters, and the Theorem 1 envelope with a sharded clairvoyant-DRF
//     baseline.
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/shard.h"
#include "coflow/coflow.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "runner/thread_pool.h"
#include "sched/allocation.h"
#include "sim/sim.h"
#include "test_util.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

using testing::Snapshot;
using testing::snapshot_all_active;

// Machines of each rack group: group g of N spans machines
// [⌊g·m/N⌋, ⌊(g+1)·m/N⌋), N clamped to the machine count.
std::vector<std::vector<MachineId>> group_members(const Fabric& fabric,
                                                  int groups) {
  const auto m = static_cast<long long>(fabric.num_machines());
  const auto n = static_cast<long long>(
      std::clamp(groups, 1, fabric.num_machines()));
  std::vector<std::vector<MachineId>> members(static_cast<std::size_t>(n));
  for (long long g = 0; g < n; ++g) {
    for (long long x = g * m / n; x < (g + 1) * m / n; ++x) {
      members[static_cast<std::size_t>(g)].push_back(
          static_cast<MachineId>(x));
    }
  }
  return members;
}

// Random trace whose flows stay inside one rack group with probability
// `locality` (1.0 = every flow stays inside one group).
// Sizes are multiples of 10 Mb so waterfill levels avoid degenerate ties.
Trace grouped_trace(const Fabric& fabric, int groups, std::uint64_t seed,
                    int num_coflows, int max_flows, double locality) {
  const auto members = group_members(fabric, groups);
  Rng rng(seed);
  TraceBuilder builder(fabric.num_machines());
  for (int c = 0; c < num_coflows; ++c) {
    builder.begin_coflow(0.0);
    const auto g = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1));
    const auto flows = static_cast<int>(rng.uniform_int(1, max_flows));
    for (int f = 0; f < flows; ++f) {
      const auto& group = members[g];
      const MachineId src = group[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(group.size()) - 1))];
      MachineId dst;
      if (rng.uniform() < locality) {
        dst = group[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(group.size()) - 1))];
      } else {
        dst = static_cast<MachineId>(
            rng.uniform_int(0, fabric.num_machines() - 1));
      }
      builder.add_flow(src, dst, 1e7 * static_cast<double>(
                                           rng.uniform_int(1, 40)));
    }
  }
  return builder.build();
}

// Builds the policy at the given shard count and allocates the snapshot,
// feeding arrival hooks first when the policy wants events.
Allocation run_alloc(const std::string& name, int shards,
                     const Snapshot& snap) {
  SchedulerOptions options;
  options.shards = shards;
  const auto sched = make_scheduler(name, options);
  if (sched->wants_events()) {
    sched->on_reset(*snap.input.fabric);
    for (const ActiveCoflow& c : snap.input.coflows) {
      sched->on_coflow_arrival(c);
    }
  }
  return sched->allocate(snap.input);
}

double total_rate(const ScheduleInput& input, const Allocation& alloc) {
  double total = 0.0;
  for (const ActiveCoflow& c : input.coflows) {
    for (const ActiveFlow& f : c.flows) total += alloc.rate(f.id);
  }
  return total;
}

// ---------------------------------------------------------------------------
// ThreadPool reentrancy (the block pool dispatches from sweep workers)

TEST(ThreadPool, NestedRunFromWorkerExecutesInline) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  // Each outer task re-enters the same pool; the nested batch must run
  // inline on the calling worker instead of deadlocking on the dispatch
  // lock the worker's own batch still holds.
  pool.run(6, [&](int) {
    pool.run(5, [&](int) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 30);
}

TEST(ThreadPool, DeeplyNestedRunStillCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.run(2, [&](int) {
    pool.run(2, [&](int) {
      pool.run(3, [&](int) { leaves++; });
    });
  });
  EXPECT_EQ(leaves.load(), 12);
}

TEST(ThreadPool, NestedRunPropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run(2,
               [&](int) {
                 pool.run(3, [&](int i) {
                   if (i == 1) throw std::runtime_error("inner boom");
                 });
               }),
      std::runtime_error);
  // The pool stays usable after the failed nested batch.
  std::atomic<int> total{0};
  pool.run(4, [&](int) { total++; });
  EXPECT_EQ(total.load(), 4);
}

TEST(ThreadPool, DistinctPoolsNestWithoutInterference) {
  // A scheduler-owned shard pool running inside a sweep worker is the
  // production shape: outer and inner pools are different objects.
  ThreadPool outer(2);
  ThreadPool inner(4);
  std::atomic<int> total{0};
  outer.run(4, [&](int) {
    inner.run(8, [&](int) { total++; });
  });
  EXPECT_EQ(total.load(), 32);
}

// ---------------------------------------------------------------------------
// 1-vs-N agreement on group-local traces

// drf and hug reduce per-block partial sums in block order, so they agree
// with serial to fp noise, not bitwise.
const char* const kShardedPolicies[] = {"drf", "hug"};

TEST(ShardEquivalence, LocalTracesMatchSerialClosely) {
  const Fabric fabric(32, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 11, 40, 6, 1.0);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  for (const char* policy : kShardedPolicies) {
    const Allocation serial = run_alloc(policy, 1, snap);
    const Allocation sharded = run_alloc(policy, 4, snap);
    for (const ActiveCoflow& c : snap.input.coflows) {
      for (const ActiveFlow& f : c.flows) {
        const double a = serial.rate(f.id);
        const double b = sharded.rate(f.id);
        EXPECT_NEAR(a, b, 1e-9 * std::max(a, 1.0))
            << policy << " flow " << f.id;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-group traces: feasibility, agreement with serial, determinism

class ShardCrossTraffic : public ::testing::TestWithParam<int> {};

TEST_P(ShardCrossTraffic, FeasibleAndNearWorkConserving) {
  const int seed = GetParam();
  const Fabric fabric(40, gbps(1.0));
  const Trace trace = grouped_trace(
      fabric, 4, static_cast<std::uint64_t>(seed) * 977 + 5, 30, 8,
      /*locality=*/0.7);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  for (const char* policy : kShardedPolicies) {
    const Allocation serial = run_alloc(policy, 1, snap);
    const Allocation sharded = run_alloc(policy, 4, snap);
    // Never infeasible, never negative.
    EXPECT_NO_THROW(check_capacity(snap.input, sharded, 1e-6)) << policy;
    for (const ActiveCoflow& c : snap.input.coflows) {
      for (const ActiveFlow& f : c.flows) {
        EXPECT_GE(sharded.rate(f.id), 0.0) << policy << " flow " << f.id;
      }
    }
    // The block split changes only the grouping of the P* sums, so the
    // sharded total matches the serial one to fp noise.
    const double base = total_rate(snap.input, serial);
    const double got = total_rate(snap.input, sharded);
    EXPECT_NEAR(got, base, 1e-9 * std::max(base, 1.0))
        << policy << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCrossTraffic,
                         ::testing::Range(0, 100));

TEST(ShardCrossTraffic, DrfShardedTracksSerialClosely) {
  // The block path has no cross-group approximation (the progress scalar
  // and rate pass are exact up to block-sum grouping), so even heavily
  // cross-group traffic must reproduce serial rates to fp noise — for drf
  // and for hug, whose stage 1 is the same code.
  const Fabric fabric(40, gbps(1.0));
  for (const char* policy : kShardedPolicies) {
    for (const std::uint64_t seed : {3u, 17u, 91u}) {
      const Trace trace = grouped_trace(fabric, 4, seed, 30, 8, 0.2);
      const Snapshot snap = snapshot_all_active(fabric, trace, true);
      const Allocation serial = run_alloc(policy, 1, snap);
      const Allocation sharded = run_alloc(policy, 4, snap);
      for (const ActiveCoflow& c : snap.input.coflows) {
        for (const ActiveFlow& f : c.flows) {
          const double a = serial.rate(f.id);
          EXPECT_NEAR(a, sharded.rate(f.id), 1e-9 * std::max(a, 1.0))
              << policy << " seed " << seed << " flow " << f.id;
        }
      }
    }
  }
}

TEST(ShardDeterminism, RepeatedShardedAllocationsAreBitwiseStable) {
  const Fabric fabric(40, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 23, 30, 8, 0.6);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  for (const char* policy : kShardedPolicies) {
    const Allocation first = run_alloc(policy, 4, snap);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const Allocation again = run_alloc(policy, 4, snap);
      for (const ActiveCoflow& c : snap.input.coflows) {
        for (const ActiveFlow& f : c.flows) {
          EXPECT_EQ(first.rate(f.id), again.rate(f.id))
              << policy << " repeat " << repeat << " flow " << f.id;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry, perf counters, sim plumbing

TEST(ShardRegistry, AtSuffixBuildsShardedScheduler) {
  const Fabric fabric(8, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 29, 6, 3, 1.0);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  const auto sched = make_scheduler("drf@4");
  const Allocation alloc = sched->allocate(snap.input);
  EXPECT_GT(alloc.num_flows(), 0u);
  ASSERT_NE(sched->perf_counters(), nullptr);
  EXPECT_GT(sched->perf_counters()->shard_regions, 0);
}

TEST(ShardRegistry, RejectsMalformedOrUnsupportedSuffixes) {
  EXPECT_THROW(make_scheduler("drf@"), CheckError);
  EXPECT_THROW(make_scheduler("drf@x4"), CheckError);
  EXPECT_THROW(make_scheduler("drf@0"), CheckError);
  EXPECT_THROW(make_scheduler("@4"), CheckError);
  EXPECT_THROW(make_scheduler("drf@99999999999"), CheckError);  // overflow
  EXPECT_THROW(make_scheduler("drf@+4"), CheckError);
  // Only drf and hug have a sharded path.
  for (const char* name :
       {"ncdrf@4", "ncdrf-live@2", "tcp@4", "fifo@4", "aalo@4", "varys@4",
        "baraat@4", "persource@4", "perpair@4", "psp@4", "psp-live@4",
        "karma@4"}) {
    EXPECT_THROW(make_scheduler(name), CheckError) << name;
  }
  SchedulerOptions two;
  two.shards = 2;
  EXPECT_THROW(make_scheduler("ncdrf", two), CheckError);
  EXPECT_NE(make_scheduler("drf@2"), nullptr);
  EXPECT_NE(make_scheduler("hug@4"), nullptr);
  // "@1" is the serial path and stays valid for every policy.
  EXPECT_NE(make_scheduler("tcp@1"), nullptr);
}

TEST(ShardRegistry, PoolThreadsAreClampedToHardware) {
  // 64 blocks: every block still runs, on at most one worker per hardware
  // thread, and the trace allocates as the serial path does (drf agrees
  // to fp noise, see kShardedPolicies).
  const Fabric fabric(64, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 64, 37, 20, 3, 1.0);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const ShardRuntime runtime(64);
  EXPECT_EQ(runtime.num_shards(), 64);
  EXPECT_EQ(runtime.num_threads(), std::min(64, hardware));

  const auto sharded = make_scheduler("drf@64");
  const Allocation rates = sharded->allocate(snap.input);
  const Allocation serial = run_alloc("drf", 1, snap);
  EXPECT_GT(sharded->perf_counters()->shard_regions, 0);
  for (const ActiveCoflow& c : snap.input.coflows) {
    for (const ActiveFlow& f : c.flows) {
      EXPECT_NEAR(rates.rate(f.id), serial.rate(f.id),
                  1e-9 * std::max(serial.rate(f.id), 1.0))
          << "flow " << f.id;
    }
  }
}

TEST(ShardPerf, CountersAccumulateOnlyOnShardedPath) {
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 31, 10, 4, 0.8);
  const Snapshot snap = snapshot_all_active(fabric, trace, true);

  const auto serial = make_scheduler("drf", SchedulerOptions{});
  serial->allocate(snap.input);
  ASSERT_NE(serial->perf_counters(), nullptr);
  EXPECT_EQ(serial->perf_counters()->shard_regions, 0);
  EXPECT_EQ(serial->perf_counters()->shard_busy_seconds, 0.0);

  SchedulerOptions four;
  four.shards = 4;
  const auto sharded = make_scheduler("drf", four);
  sharded->allocate(snap.input);
  const SchedPerf* perf = sharded->perf_counters();
  ASSERT_NE(perf, nullptr);
  EXPECT_GT(perf->shard_regions, 0);
  // The critical path is a per-region max of per-task CPU, so the busy
  // total can never be smaller.
  EXPECT_GE(perf->shard_busy_seconds, perf->shard_critical_seconds);
  EXPECT_GE(perf->shard_critical_seconds, 0.0);
}

TEST(ShardSim, CrossShardTraceCompletesUnderValidation) {
  // End-to-end through the simulator: the block path of hug (DRF stage 1
  // plus the serial stage 2) never oversubscribes a link on cross-group
  // traffic and finishes every coflow.
  const Fabric fabric(16, gbps(1.0));
  const Trace trace = grouped_trace(fabric, 4, 41, 12, 4, 0.5);
  const auto sched = make_scheduler("hug@4");
  SimOptions options;
  options.record_intervals = false;
  options.validate_allocations = true;  // throws on oversubscription
  const RunResult run = simulate(fabric, trace, *sched, options);
  ASSERT_EQ(run.coflows.size(), trace.coflows.size());
  for (const CoflowRecord& record : run.coflows) {
    EXPECT_GT(record.cct, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Theorem 1 envelope against a sharded clairvoyant-DRF baseline

Trace theorem_instance(std::uint64_t seed, int machines, int coflows) {
  Rng rng(seed);
  TraceBuilder builder(machines);
  for (int c = 0; c < coflows; ++c) {
    builder.begin_coflow(0.0);
    const int m_k = static_cast<int>(rng.uniform_int(2, machines));
    const int r_k = static_cast<int>(rng.uniform_int(1, m_k - 1));
    const std::vector<int> ups =
        rng.sample_without_replacement(machines, m_k);
    const std::vector<int> downs =
        rng.sample_without_replacement(machines, r_k);
    const double base = rng.uniform(megabits(20.0), megabits(200.0));
    for (const int down : downs) {
      const double size = base * rng.uniform(1.0, 3.0);
      for (const int up : ups) builder.add_flow(up, down, size);
    }
  }
  return builder.build();
}

TEST(ShardTheorem1, EnvelopeHoldsAgainstShardedDrfBaseline) {
  // drf@4 reproduces serial DRF to fp noise (no cross-group approximation),
  // so NC-DRF must stay within the e_max envelope of the *sharded*
  // clairvoyant baseline too — the long-term isolation guarantee survives
  // the parallel allocation path.
  const Fabric fabric(8, gbps(1.0));
  for (const std::uint64_t seed : {1u, 5u}) {
    const Trace trace = theorem_instance(seed, 8, 10);
    double e_max = 1.0;
    for (const Coflow& coflow : trace.coflows) {
      e_max = std::max(e_max, coflow.demand(fabric).disparity());
    }

    NcDrfScheduler ncdrf;
    const auto drf = make_scheduler("drf@4");
    SimOptions options;
    options.record_intervals = false;
    const RunResult run_nc = simulate(fabric, trace, ncdrf, options);
    const RunResult run_drf = simulate(fabric, trace, *drf, options);
    ASSERT_EQ(run_nc.coflows.size(), trace.coflows.size());
    for (std::size_t k = 0; k < trace.coflows.size(); ++k) {
      ASSERT_GT(run_drf.coflows[k].cct, 0.0);
      const double ratio = run_nc.coflows[k].cct / run_drf.coflows[k].cct;
      EXPECT_LE(ratio, e_max * (1.0 + 1e-6))
          << "coflow " << k << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ncdrf
