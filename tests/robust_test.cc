// Seeded robustness harness for the parsers that read outside input:
// parse_json, parse_scenario and parse_benchmark_trace_string. An in-tree
// byte mutator (bit flip, insert, delete, splice) derives kMutations
// documents per target from valid seed documents, and every one must be
// rejected cleanly or accepted into a value that round-trips:
//
//   * parse_json never throws, and returns "" or "<what> at offset N";
//   * parse_scenario throws nothing but CheckError, and an accepted spec
//     is a to_json fixed point;
//   * parse_benchmark_trace_string throws nothing but CheckError, and an
//     accepted trace has finite positive sizes, in-range endpoints, and a
//     serialization that parses again to the same coflows and bytes.
//
// The mutator is seeded, so a failure reproduces; the failing input is
// printed JSON-quoted. libFuzzer needs clang, so this stays a plain gtest
// that runs under the ASan/UBSan build like every other test.
//
// The serving front-end is outside input too: ServeAdmission mixes
// malformed submissions into seeded honest load and checks that they are
// dropped and counted at admission without disturbing anyone else.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/faults.h"
#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "scenario/source.h"
#include "scenario/spec.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "trace/benchmark_format.h"
#include "trace/trace.h"

namespace ncdrf {
namespace {

constexpr int kMutations = 20000;

// Bytes the two grammars give meaning to; half of all inserted bytes come
// from here so mutations often land on structure rather than noise.
constexpr std::string_view kSyntax = "{}[]:,\"\\/-+.eEtfnu0123456789 \n\t";

class Mutator {
 public:
  Mutator(std::vector<std::string> seeds, std::uint64_t seed)
      : seeds_(std::move(seeds)), rng_(seed) {}

  // One seed document with one to four random edits.
  std::string next() {
    std::string doc = seeds_[index(seeds_.size())];
    const auto edits = rng_.uniform_int(1, 4);
    for (std::int64_t i = 0; i < edits; ++i) edit(doc);
    return doc;
  }

 private:
  // Uniform in [0, n); 0 when n == 0.
  std::size_t index(std::size_t n) {
    if (n == 0) return 0;
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  char byte() {
    if (rng_.bernoulli(0.5)) return kSyntax[index(kSyntax.size())];
    return static_cast<char>(rng_.uniform_int(0, 255));
  }

  void edit(std::string& doc) {
    switch (rng_.uniform_int(0, 3)) {
      case 0:  // flip one bit
        if (!doc.empty()) {
          doc[index(doc.size())] ^=
              static_cast<char>(1 << rng_.uniform_int(0, 7));
        }
        break;
      case 1: {  // insert one to four bytes
        std::string bytes;
        for (auto n = rng_.uniform_int(1, 4); n > 0; --n) bytes += byte();
        doc.insert(index(doc.size() + 1), bytes);
        break;
      }
      case 2:  // delete a span of up to eight bytes
        if (!doc.empty()) {
          const std::size_t at = index(doc.size());
          doc.erase(at, static_cast<std::size_t>(rng_.uniform_int(1, 8)));
        }
        break;
      default: {  // splice a chunk of another seed over a span of this one
        const std::string& other = seeds_[index(seeds_.size())];
        const std::size_t from = index(other.size());
        const std::string chunk = other.substr(
            from, static_cast<std::size_t>(rng_.uniform_int(1, 32)));
        const std::size_t at = index(doc.size() + 1);
        doc.replace(at, static_cast<std::size_t>(rng_.uniform_int(0, 8)),
                    chunk);
        break;
      }
    }
  }

  std::vector<std::string> seeds_;
  Rng rng_;
};

scenario::ScenarioSpec full_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "robust \"seed\"\n\xc3\xa9";
  spec.policy = "karma";
  spec.link_gbps = 0.5;
  spec.workload.seed = 18446744073709551615ull;
  spec.workload.num_clients = 3;
  spec.workload.num_machines = 8;
  spec.workload.sizes_known = true;
  scenario::StrategySpec splitter;
  splitter.kind = "flow-splitter";
  splitter.k = 3;
  spec.strategies[0] = splitter;
  scenario::StrategySpec padder;
  padder.kind = "dust-padder";
  padder.dust_bits = 1.5e3;
  padder.seed = 7;
  spec.strategies[2] = padder;
  spec.faults.crash_slave(0.25, 3).restart_slave(0.5, 3).loss_burst(1.0, 2.0,
                                                                    0.25);
  return spec;
}

TEST(RobustParse, JsonRejectsWithAnOffsetOrAccepts) {
  Mutator mutator(
      {scenario::to_json(full_spec()),
       R"({"counters":{"a":1},"gauges":{"g":-2.5e-3},"histograms":{}})",
       R"([[[[{"k":[null,true,false,"é😀\/\b\f\r"]}]]]])",
       R"({"n":[0,-0,1.5E+3,18446744073709551615,-1e-300]})"},
      20180701);
  int accepted = 0;
  for (int i = 0; i < kMutations && !::testing::Test::HasFailure(); ++i) {
    const std::string doc = mutator.next();
    JsonValue root;
    std::string err;
    try {
      err = parse_json(doc, &root);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse_json threw " << e.what() << " on "
                    << json_quote(doc);
      continue;
    }
    if (err.empty()) {
      ++accepted;
    } else {
      EXPECT_NE(err.find(" at offset "), std::string::npos)
          << err << " on " << json_quote(doc);
    }
  }
  // Not only rejections: the harness must reach the accepting paths too.
  EXPECT_GT(accepted, kMutations / 100);
}

TEST(RobustParse, ScenarioSpecRejectsOrRoundTrips) {
  Mutator mutator(
      {scenario::to_json(full_spec()),
       scenario::to_json(scenario::ScenarioSpec{}),
       R"({"name":"s","workload":{"num_clients":2,"sizes_known":false},)"
       R"("strategies":{"1":{"kind":"honest","seed":3}},)"
       R"("faults":[{"time":1,"kind":"master_crash"}]})",
       "{}"},
      7);
  int accepted = 0;
  for (int i = 0; i < kMutations && !::testing::Test::HasFailure(); ++i) {
    const std::string doc = mutator.next();
    scenario::ScenarioSpec spec;
    try {
      spec = scenario::parse_scenario(doc);
    } catch (const CheckError&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse_scenario threw " << e.what() << " on "
                    << json_quote(doc);
      continue;
    }
    ++accepted;
    const std::string json = scenario::to_json(spec);
    std::string again;
    EXPECT_NO_THROW(again = scenario::to_json(scenario::parse_scenario(json)))
        << json_quote(doc);
    EXPECT_EQ(again, json) << json_quote(doc);
  }
  EXPECT_GT(accepted, kMutations / 100);
}

TEST(RobustParse, BenchmarkTraceRejectsOrRoundTrips) {
  Mutator mutator({"4 2\n1 0 2 1 2 2 3:10 4:5.5\n2 100 1 3 1 1:20\n",
                   "3 1\n7 12.5 1 0 2 1:0.25 2:1e-3\n",
                   "150 3\n1 0 1 150 1 1:1\n2 5 3 1 2 3 1 4:64\n"
                   "3 9 1 9 2 10:2 11:3\n"},
                  31);
  int accepted = 0;
  for (int i = 0; i < kMutations && !::testing::Test::HasFailure(); ++i) {
    const std::string doc = mutator.next();
    Trace trace;
    try {
      trace = parse_benchmark_trace_string(doc);
    } catch (const CheckError&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse_benchmark_trace threw " << e.what() << " on "
                    << json_quote(doc);
      continue;
    }
    ++accepted;
    for (const Coflow& c : trace.coflows) {
      for (const Flow& f : c.flows()) {
        EXPECT_TRUE(std::isfinite(f.size_bits) && f.size_bits > 0.0)
            << json_quote(doc);
        EXPECT_TRUE(f.src >= 0 && f.src < trace.num_machines &&
                    f.dst >= 0 && f.dst < trace.num_machines)
            << json_quote(doc);
      }
    }
    Trace again;
    EXPECT_NO_THROW(
        again = parse_benchmark_trace_string(serialize_benchmark_trace(trace)))
        << json_quote(doc);
    EXPECT_EQ(again.num_machines, trace.num_machines) << json_quote(doc);
    EXPECT_EQ(again.coflows.size(), trace.coflows.size()) << json_quote(doc);
    EXPECT_NEAR(again.total_bits(), trace.total_bits(),
                1e-9 * trace.total_bits())
        << json_quote(doc);
  }
  EXPECT_GT(accepted, kMutations / 100);
}

// ---------------------------------------------------------------------------
// Serve admission boundary

constexpr int kServeMachines = 8;
constexpr double kServeEpoch = 1e-3;

// Drives a ServeFront over `honest` on an epoch grid with a fluid data
// plane kept here: each epoch's allocation moves bytes for one epoch, the
// flows that drain are reported before the next epoch, and a coflow's CCT
// is the epoch boundary at which its last flow drained, minus its submit
// time. `bad` submissions are enqueued at their submit time on the client
// named by their `client` field, alongside the honest load.
std::map<CoflowId, double> serve_ccts(
    const std::vector<std::vector<serve::Submission>>& honest,
    const std::vector<serve::Submission>& bad, obs::MetricsRegistry* metrics,
    long long* invalid) {
  const Fabric fabric(kServeMachines, gbps(1.0));
  const auto scheduler = make_scheduler("ncdrf");
  serve::ServeOptions options;
  options.epoch_s = kServeEpoch;
  options.metrics = metrics;
  serve::ServeFront front(fabric, *scheduler,
                          static_cast<int>(honest.size()), options);

  std::map<FlowId, double> remaining;
  std::map<FlowId, CoflowId> owner;
  std::map<CoflowId, int> live;
  std::map<CoflowId, double> submitted;
  std::map<CoflowId, double> cct;
  std::vector<std::size_t> cursor(honest.size(), 0);
  std::size_t bad_cursor = 0;
  std::size_t total = 0;
  for (const auto& schedule : honest) total += schedule.size();
  std::vector<FlowFinishedMsg> finished;

  for (long long epoch = 0; cct.size() < total; ++epoch) {
    if (epoch > 1000000) {
      ADD_FAILURE() << "serve run did not drain";
      break;
    }
    const double now = static_cast<double>(epoch) * kServeEpoch;
    for (std::size_t c = 0; c < honest.size(); ++c) {
      while (cursor[c] < honest[c].size() &&
             honest[c][cursor[c]].submit_time <= now) {
        serve::Submission s = honest[c][cursor[c]++];
        s.client = static_cast<int>(c);
        for (const Flow& f : s.flows) {
          remaining[f.id] = f.size_bits;
          owner[f.id] = s.coflow;
        }
        live[s.coflow] = static_cast<int>(s.flows.size());
        submitted[s.coflow] = s.submit_time;
        EXPECT_TRUE(front.queue(static_cast<int>(c)).try_enqueue(std::move(s)));
      }
    }
    while (bad_cursor < bad.size() && bad[bad_cursor].submit_time <= now) {
      const serve::Submission& s = bad[bad_cursor++];
      EXPECT_TRUE(front.queue(s.client).try_enqueue(s));
    }
    if (!finished.empty()) {
      for (FlowFinishedMsg& msg : finished) msg.finish_time = now;
      front.master().on_flows_finished(finished);
      finished.clear();
    }
    front.step_epoch(now);

    const Allocation& alloc = front.last_allocation();
    for (auto it = remaining.begin(); it != remaining.end();) {
      it->second -= alloc.rate(it->first) * kServeEpoch;
      if (it->second > 1e-6) {
        ++it;
        continue;
      }
      const CoflowId coflow = owner.at(it->first);
      finished.push_back(FlowFinishedMsg{it->first, coflow, 0.0});
      if (--live.at(coflow) == 0) {
        cct[coflow] = now + kServeEpoch - submitted.at(coflow);
      }
      it = remaining.erase(it);
    }
  }
  *invalid = front.invalid();
  return cct;
}

TEST(ServeAdmission, MalformedSubmissionsAreCountedAndIsolated) {
  serve::LoadGenOptions load;
  load.seed = 20180701;
  load.num_clients = 3;
  load.num_machines = kServeMachines;
  load.arrival_rate_per_s = 400.0;
  load.duration_s = 0.1;
  load.mean_lifetime_s = 0.0;  // coflows retire when their bytes drain
  const auto honest = serve::LoadGenerator(load).generate();

  // One bad submission per malformation, spread over the clients and the
  // run. Ids sit far above the honest ones, so any leak into the master
  // would show up as an extra coflow rather than a collision.
  const auto bad_one = [](int client, double at, CoflowId coflow) {
    serve::Submission s;
    s.coflow = coflow;
    s.client = client;
    s.submit_time = at;
    s.flows.push_back(Flow{coflow * 10, coflow, 0, 1, 8e6});
    return s;
  };
  std::vector<serve::Submission> bad;
  bad.push_back(bad_one(0, 0.010, 100000));
  bad.back().flows.clear();  // no flows
  bad.push_back(bad_one(1, 0.020, 100001));
  bad.back().flows[0].src = 99;  // outside the fabric
  bad.push_back(bad_one(2, 0.030, 100002));
  bad.back().flows[0].dst = -1;
  bad.push_back(bad_one(0, 0.040, 100003));
  bad.back().flows[0].size_bits = std::numeric_limits<double>::quiet_NaN();
  bad.push_back(bad_one(1, 0.050, 100004));
  bad.back().flows[0].size_bits = std::numeric_limits<double>::infinity();
  bad.push_back(bad_one(2, 0.060, 100005));
  bad.back().flows[0].size_bits = -1.0;
  bad.push_back(bad_one(0, 0.070, 100006));
  bad.back().flows[0].coflow = 7;  // a flow claiming another coflow
  bad.push_back(bad_one(2, 0.072, 100010));
  bad.back().flows[0].id = -5;

  long long clean_invalid = -1;
  const std::map<CoflowId, double> clean =
      serve_ccts(honest, {}, nullptr, &clean_invalid);
  EXPECT_EQ(clean_invalid, 0);

  // Duplicate ids, taken from the honest load. First, a flow id repeated
  // within one submission.
  bad.push_back(bad_one(1, 0.075, 100007));
  bad.back().flows.push_back(bad.back().flows[0]);
  // An honest flow id reused in the same epoch, queued behind its owner.
  const serve::Submission& same_epoch = honest[0][honest[0].size() / 2];
  bad.push_back(bad_one(0, same_epoch.submit_time, 100008));
  bad.back().flows[0].id = same_epoch.flows.back().id;
  // An honest flow id reused an epoch later, while its coflow still drains
  // (the master holds a coflow's flows until the whole coflow retires).
  const serve::Submission* draining = nullptr;
  for (const serve::Submission& s : honest[1]) {
    if (s.submit_time > 0.02 && clean.at(s.coflow) > 3 * kServeEpoch) {
      draining = &s;
      break;
    }
  }
  ASSERT_NE(draining, nullptr);
  bad.push_back(bad_one(2, draining->submit_time + kServeEpoch, 100009));
  bad.back().flows[0].id = draining->flows.front().id;
  // An honest coflow id the front still tracks, with a fresh flow id.
  const serve::Submission& tracked = honest[2][1];
  bad.push_back(
      bad_one(1, tracked.submit_time + kServeEpoch, tracked.coflow));
  bad.back().flows[0].id = 2000000;
  std::stable_sort(bad.begin(), bad.end(),
                   [](const serve::Submission& a, const serve::Submission& b) {
                     return a.submit_time < b.submit_time;
                   });

  obs::MetricsRegistry metrics;
  long long invalid = -1;
  std::map<CoflowId, double> mixed;
  ASSERT_NO_THROW(mixed = serve_ccts(honest, bad, &metrics, &invalid));
  EXPECT_EQ(invalid, 12);
  const auto count = [&](const std::string& name) {
    const auto it = metrics.counters().find(name);
    return it == metrics.counters().end() ? 0LL : it->second.value;
  };
  EXPECT_EQ(count("serve.client.0.invalid.no_flows"), 1);
  EXPECT_EQ(count("serve.client.1.invalid.endpoint"), 1);
  EXPECT_EQ(count("serve.client.2.invalid.endpoint"), 1);
  EXPECT_EQ(count("serve.client.0.invalid.size"), 1);
  EXPECT_EQ(count("serve.client.1.invalid.size"), 1);
  EXPECT_EQ(count("serve.client.2.invalid.size"), 1);
  EXPECT_EQ(count("serve.client.0.invalid.coflow"), 1);
  EXPECT_EQ(count("serve.client.2.invalid.flow_id"), 1);
  EXPECT_EQ(count("serve.client.0.invalid.duplicate"), 1);
  EXPECT_EQ(count("serve.client.1.invalid.duplicate"), 2);
  EXPECT_EQ(count("serve.client.2.invalid.duplicate"), 1);

  // The honest tenants never notice: every CCT is bitwise the clean one.
  ASSERT_GT(clean.size(), 20u);
  ASSERT_EQ(mixed.size(), clean.size());
  for (const auto& [coflow, time] : clean) {
    ASSERT_TRUE(mixed.contains(coflow)) << "coflow " << coflow;
    EXPECT_EQ(mixed.at(coflow), time) << "coflow " << coflow;
  }
}

// Per-coflow completion times of a ServeFront::run over `per_client`,
// under a fluid model of the allocations it makes: each allocation's rates
// hold until the next one, and a coflow completes when its last flow has
// drained. The front itself retires coflows at their modeled lifetimes.
std::map<CoflowId, double> run_ccts(
    std::vector<std::vector<serve::Submission>> per_client,
    obs::MetricsRegistry* metrics, long long* invalid) {
  std::map<FlowId, double> remaining;
  std::map<FlowId, CoflowId> owner;
  std::map<CoflowId, int> live;
  std::map<CoflowId, double> submitted;
  for (const auto& schedule : per_client) {
    for (const serve::Submission& s : schedule) {
      if (s.client < 0 || s.client >= 2) continue;
      for (const Flow& f : s.flows) {
        remaining[f.id] = f.size_bits;
        owner[f.id] = s.coflow;
      }
      live[s.coflow] = static_cast<int>(s.flows.size());
      submitted[s.coflow] = s.submit_time;
    }
  }
  std::map<CoflowId, double> cct;
  std::map<FlowId, double> rate;
  double last = 0.0;
  const auto advance = [&](double to) {
    for (auto it = remaining.begin(); it != remaining.end();) {
      const double r = rate[it->first];
      if (r <= 0.0 || it->second > r * (to - last)) {
        it->second -= r * (to - last);
        ++it;
        continue;
      }
      const CoflowId coflow = owner.at(it->first);
      if (--live.at(coflow) == 0) {
        cct[coflow] = last + it->second / r - submitted.at(coflow);
      }
      it = remaining.erase(it);
    }
    last = to;
  };

  const Fabric fabric(kServeMachines, gbps(1.0));
  const auto scheduler = make_scheduler("ncdrf");
  serve::ServeOptions options;
  options.epoch_s = kServeEpoch;
  options.metrics = metrics;
  serve::ServeFront front(fabric, *scheduler, 2, options);
  front.alloc_hook = [&](double now, const ScheduleInput&,
                         const Allocation& alloc) {
    advance(now);
    for (const auto& [flow, bits] : remaining) rate[flow] = alloc.rate(flow);
  };
  scenario::VectorSource source(std::move(per_client), kServeMachines);
  front.run(source);
  advance(last + 1e6);
  *invalid = front.invalid();
  return cct;
}

TEST(ServeAdmission, SubmissionForAnUnknownClientIsDroppedAndCounted) {
  serve::LoadGenOptions load;
  load.seed = 7;
  load.num_clients = 2;
  load.num_machines = kServeMachines;
  load.arrival_rate_per_s = 400.0;
  load.duration_s = 0.1;
  load.mean_lifetime_s = 1.0;  // most coflows drain before they depart
  const auto honest = serve::LoadGenerator(load).generate();

  long long clean_invalid = -1;
  const std::map<CoflowId, double> clean =
      run_ccts(honest, nullptr, &clean_invalid);
  EXPECT_EQ(clean_invalid, 0);

  // The source yields a submission addressed to client 5 of 2, mid-run.
  auto mixed_load = honest;
  serve::Submission stray;
  stray.coflow = 100000;
  stray.client = 5;
  stray.submit_time = 0.05;
  stray.flows.push_back(Flow{1000000, 100000, 0, 1, 8e6});
  auto& slot = mixed_load[0];
  slot.insert(std::upper_bound(slot.begin(), slot.end(), stray.submit_time,
                               [](double t, const serve::Submission& s) {
                                 return t < s.submit_time;
                               }),
              stray);

  obs::MetricsRegistry metrics;
  long long invalid = -1;
  std::map<CoflowId, double> mixed;
  ASSERT_NO_THROW(mixed = run_ccts(mixed_load, &metrics, &invalid));
  EXPECT_EQ(invalid, 1);
  const auto it = metrics.counters().find("serve.invalid.client");
  ASSERT_NE(it, metrics.counters().end());
  EXPECT_EQ(it->second.value, 1);

  ASSERT_GT(clean.size(), 20u);
  ASSERT_EQ(mixed.size(), clean.size());
  for (const auto& [coflow, time] : clean) {
    ASSERT_TRUE(mixed.contains(coflow)) << "coflow " << coflow;
    EXPECT_EQ(mixed.at(coflow), time) << "coflow " << coflow;
  }
}

}  // namespace
}  // namespace ncdrf
