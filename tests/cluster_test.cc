// Tests for the master/slave cluster emulation: bus ordering, slave rate
// enforcement, master view maintenance, and end-to-end deployments whose
// CCTs must track the fluid simulator's predictions.
#include <gtest/gtest.h>

#include "cluster/bus.h"
#include "cluster/deployment.h"
#include "cluster/master.h"
#include "cluster/slave.h"
#include "common/check.h"
#include "common/units.h"
#include "core/ncdrf.h"
#include "core/registry.h"
#include "sim/sim.h"
#include "test_util.h"

namespace ncdrf {
namespace {

using testing::fig3_trace;

TEST(Bus, DelaysAndOrdersDeliveries) {
  SimBus bus(0.5);
  bus.send(0.0, master_address(), FlowFinishedMsg{1, 0, 0.0});
  bus.send(0.1, master_address(), FlowFinishedMsg{2, 0, 0.1});
  EXPECT_TRUE(bus.deliver_due(0.4).empty());  // nothing before latency
  const auto at_half = bus.deliver_due(0.5);
  ASSERT_EQ(at_half.size(), 1u);
  EXPECT_EQ(std::get<FlowFinishedMsg>(at_half[0].payload).flow, 1);
  const auto rest = bus.deliver_due(10.0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(std::get<FlowFinishedMsg>(rest[0].payload).flow, 2);
  EXPECT_TRUE(bus.empty());
  EXPECT_EQ(bus.total_sent(), 2);
}

TEST(Bus, FifoAmongSimultaneousSends) {
  SimBus bus(0.0);
  for (int i = 0; i < 5; ++i) {
    bus.send(1.0, master_address(), FlowFinishedMsg{i, 0, 1.0});
  }
  const auto due = bus.deliver_due(1.0);
  ASSERT_EQ(due.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<FlowFinishedMsg>(due[i].payload).flow, i);
  }
}

TEST(Slave, EnforcesRatesAndReportsCompletion) {
  Slave slave(0, 0.1);
  slave.add_flow(Flow{7, 0, 0, 1, megabits(10.0)});
  // No rate yet → desired rate 0.
  ASSERT_EQ(slave.desired_rates().size(), 1u);
  EXPECT_DOUBLE_EQ(slave.desired_rates()[0].second, 0.0);

  RateUpdateMsg update;
  update.rates_bps.emplace_back(7, mbps(100.0));
  slave.on_rate_update(update);
  EXPECT_DOUBLE_EQ(slave.desired_rates()[0].second, mbps(100.0));

  // Heartbeats report attained service as size − remaining, read from the
  // data plane's byte counters.
  std::vector<double> remaining(8, 0.0);
  remaining[7] = megabits(6.0);
  const ClairvoyantInfo counters(&remaining);
  SimBus bus(0.0);
  slave.heartbeat_now(0.0, bus, &counters);
  const auto beat = bus.deliver_due(0.0);
  ASSERT_EQ(beat.size(), 1u);
  const auto& hb = std::get<HeartbeatMsg>(beat[0].payload);
  ASSERT_EQ(hb.attained_bits.size(), 1u);
  EXPECT_EQ(hb.attained_bits[0].first, 7);
  EXPECT_DOUBLE_EQ(hb.attained_bits[0].second, megabits(4.0));

  // Completion: the flow stops sending and later beats re-advertise it.
  slave.finish_flow(7);
  EXPECT_EQ(slave.live_flows(), 0);
  EXPECT_TRUE(slave.desired_rates().empty());
  EXPECT_TRUE(slave.maybe_heartbeat(1.0, bus, &counters));
  const auto repair = bus.deliver_due(1.0);
  ASSERT_EQ(repair.size(), 1u);
  EXPECT_EQ(std::get<HeartbeatMsg>(repair[0].payload).finished_flows,
            std::vector<FlowId>{7});
}

TEST(Slave, IgnoresStaleRateUpdates) {
  Slave slave(0, 0.1);
  RateUpdateMsg update;
  update.rates_bps.emplace_back(99, mbps(5.0));  // unknown flow
  EXPECT_NO_THROW(slave.on_rate_update(update));
}

TEST(Slave, RejectsForeignFlows) {
  Slave slave(3, 0.1);
  EXPECT_THROW(slave.add_flow(Flow{0, 0, 1, 2, 100.0}), CheckError);
}

TEST(Slave, HeartbeatsAreRateLimited) {
  Slave slave(0, 1.0);
  slave.add_flow(Flow{1, 0, 0, 1, megabits(10.0)});
  SimBus bus(0.0);
  slave.maybe_heartbeat(0.0, bus);   // fires
  slave.maybe_heartbeat(0.5, bus);   // suppressed
  slave.maybe_heartbeat(1.0, bus);   // fires
  EXPECT_EQ(bus.total_sent(), 2);
}

TEST(Master, RegistrationMakesItDirtyAndAllocates) {
  const Fabric fabric(2, mbps(200.0));
  NcDrfScheduler ncdrf;
  Master master(fabric, ncdrf);
  EXPECT_FALSE(master.dirty());

  RegisterCoflowMsg reg;
  reg.coflow = 0;
  reg.arrival_time = 0.0;
  reg.flows.push_back(Flow{0, 0, 0, 1, 0.0});  // sizes withheld
  master.on_register(reg);
  EXPECT_TRUE(master.dirty());
  EXPECT_EQ(master.active_coflows(), 1);

  SimBus bus(0.0);
  master.reallocate(0.0, bus);
  EXPECT_FALSE(master.dirty());
  const auto due = bus.deliver_due(0.0);
  ASSERT_EQ(due.size(), 1u);  // one RateUpdate to slave 0
  EXPECT_FALSE(due[0].to.is_master);
  EXPECT_EQ(due[0].to.machine, 0);
  const auto& rates = std::get<RateUpdateMsg>(due[0].payload).rates_bps;
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0].second, mbps(200.0), 1.0);  // whole link, alone
}

TEST(Master, FlowFinishRetiresCoflow) {
  const Fabric fabric(2, mbps(200.0));
  NcDrfScheduler ncdrf;
  Master master(fabric, ncdrf);
  RegisterCoflowMsg reg;
  reg.coflow = 0;
  reg.arrival_time = 0.0;
  reg.flows.push_back(Flow{0, 0, 0, 1, 0.0});
  reg.flows.push_back(Flow{1, 0, 1, 0, 0.0});
  master.on_register(reg);
  master.on_flow_finished(FlowFinishedMsg{0, 0, 1.0});
  EXPECT_EQ(master.active_coflows(), 1);
  master.on_flow_finished(FlowFinishedMsg{1, 0, 2.0});
  EXPECT_EQ(master.active_coflows(), 0);
}

TEST(Master, RejectedRegistrationLeavesTheViewUnchanged) {
  // A registration reusing a live flow id throws before committing any
  // of its flows, so the corrected retry is accepted, not ignored as a
  // replay of a half-registered coflow.
  const Fabric fabric(2, mbps(200.0));
  NcDrfScheduler ncdrf;
  Master master(fabric, ncdrf);
  RegisterCoflowMsg first;
  first.coflow = 0;
  first.flows.push_back(Flow{0, 0, 0, 1, 0.0});
  master.on_register(first);
  SimBus bus(0.0);
  master.reallocate(0.0, bus);
  ASSERT_FALSE(master.dirty());

  RegisterCoflowMsg clash;
  clash.coflow = 1;
  clash.flows.push_back(Flow{5, 1, 1, 0, 0.0});
  clash.flows.push_back(Flow{0, 1, 1, 0, 0.0});  // live id of coflow 0
  EXPECT_THROW(master.on_register(clash), CheckError);
  EXPECT_EQ(master.active_coflows(), 1);
  EXPECT_FALSE(master.dirty());

  RegisterCoflowMsg repeat;  // an id repeated within one message
  repeat.coflow = 1;
  repeat.flows.push_back(Flow{6, 1, 1, 0, 0.0});
  repeat.flows.push_back(Flow{6, 1, 1, 0, 0.0});
  EXPECT_THROW(master.on_register(repeat), CheckError);
  EXPECT_EQ(master.active_coflows(), 1);
  EXPECT_FALSE(master.dirty());

  RegisterCoflowMsg negative;  // a negative id behind a valid one
  negative.coflow = 1;
  negative.flows.push_back(Flow{7, 1, 1, 0, 0.0});
  negative.flows.push_back(Flow{-3, 1, 1, 0, 0.0});
  EXPECT_THROW(master.on_register(negative), CheckError);
  EXPECT_EQ(master.active_coflows(), 1);
  EXPECT_FALSE(master.dirty());

  RegisterCoflowMsg fixed;
  fixed.coflow = 1;
  fixed.flows.push_back(Flow{5, 1, 1, 0, 0.0});
  fixed.flows.push_back(Flow{6, 1, 1, 0, 0.0});
  master.on_register(fixed);
  EXPECT_EQ(master.registrations_ignored(), 0);
  EXPECT_EQ(master.active_coflows(), 2);

  // Coflow 0's flow is untouched: still live, and its finish retires it.
  master.on_flow_finished(FlowFinishedMsg{0, 0, 1.0});
  EXPECT_EQ(master.active_coflows(), 1);
}

TEST(Deployment, SingleFlowMatchesAnalyticCct) {
  // 200 Mbps link, 100 Mb flow → 0.5 s transfer; control latency and the
  // 10 ms ticks add a small constant overhead.
  const Fabric fabric(60, mbps(200.0));
  TraceBuilder builder(60);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, megabits(100.0));
  const Trace trace = builder.build();
  const auto ncdrf = make_scheduler("ncdrf");
  const DeploymentResult result = run_deployment(fabric, trace, *ncdrf);
  ASSERT_EQ(result.coflows.size(), 1u);
  EXPECT_GT(result.coflows[0].cct, 0.5 - 1e-9);   // physics lower bound
  EXPECT_LT(result.coflows[0].cct, 0.6);           // + bounded overhead
  EXPECT_GE(result.num_reallocations, 1);
}

TEST(Deployment, TracksFluidSimulatorOnFig3) {
  const Fabric fabric(2, gbps(1.0));
  const Trace trace = fig3_trace();
  for (const std::string name : {"ncdrf", "psp", "tcp", "drf"}) {
    const auto sched_sim = make_scheduler(name);
    const auto sched_dep = make_scheduler(name);
    const RunResult fluid = simulate(fabric, trace, *sched_sim);
    DeploymentOptions options;
    options.tick_s = 0.002;  // fine ticks for a sub-second workload
    options.control_latency_s = 0.001;
    const DeploymentResult dep =
        run_deployment(fabric, trace, *sched_dep, options);
    for (std::size_t k = 0; k < trace.coflows.size(); ++k) {
      EXPECT_NEAR(dep.coflows[k].cct, fluid.coflows[k].cct,
                  0.1 * fluid.coflows[k].cct + 0.05)
          << name << " coflow " << k;
    }
  }
}

TEST(Deployment, ProgressSamplesCoverAllCoflows) {
  const Fabric fabric(2, gbps(1.0));
  const auto ncdrf = make_scheduler("ncdrf");
  DeploymentOptions options;
  options.tick_s = 0.002;
  options.progress_sample_period_s = 0.01;
  const DeploymentResult result =
      run_deployment(fabric, fig3_trace(), *ncdrf, options);
  bool saw[2] = {false, false};
  for (const ProgressSample& s : result.progress) {
    ASSERT_GE(s.coflow, 0);
    ASSERT_LT(s.coflow, 2);
    saw[s.coflow] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

TEST(Deployment, StaggeredArrivalsRespectArrivalTimes) {
  const Fabric fabric(2, gbps(1.0));
  TraceBuilder builder(2);
  builder.begin_coflow(0.0);
  builder.add_flow(0, 1, megabits(100.0));
  builder.begin_coflow(2.0);
  builder.add_flow(0, 1, megabits(100.0));
  const Trace trace = builder.build();
  const auto ncdrf = make_scheduler("ncdrf");
  const DeploymentResult result = run_deployment(fabric, trace, *ncdrf);
  EXPECT_GE(result.coflows[1].completion, 2.0);
  EXPECT_LT(result.coflows[0].completion, 1.0);
}

TEST(Deployment, ClairvoyantSchedulersGetRegisteredSizes) {
  const Fabric fabric(2, gbps(1.0));
  for (const std::string name : {"drf", "hug", "varys"}) {
    const auto sched = make_scheduler(name);
    EXPECT_NO_THROW(run_deployment(fabric, fig3_trace(), *sched)) << name;
  }
}

}  // namespace
}  // namespace ncdrf
