// Tests of the shared execution engine (sys/engine/): the NoC idle-latency
// oracle vs the flit-level simulation, wait_all deadlock diagnostics, the
// ExecTrace invariants every variant must uphold, crossbar-system edge
// cases, and the Chrome-trace exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/interconnect_design.hpp"
#include "noc/flit.hpp"
#include "noc/network.hpp"
#include "sys/crossbar_system.hpp"
#include "sys/engine/chrome_trace.hpp"
#include "sys/engine/context.hpp"
#include "sys/engine/ops.hpp"
#include "sys/executor.hpp"
#include "sys/experiment.hpp"
#include "sys/timeline.hpp"
#include "util/error.hpp"

namespace hybridic::sys {
namespace {

using engine::EventKind;
using engine::ExecTrace;
using engine::Fabric;
using engine::TraceEvent;

/// host -> k1 -> k2 -> k3 -> sink chain (same shape as test_executor's).
struct Chain {
  Chain() {
    host = graph.add_function("host");
    k1 = graph.add_function("k1");
    k2 = graph.add_function("k2");
    k3 = graph.add_function("k3");
    sink = graph.add_function("sink");
    graph.function_mutable(host).work_units = 10'000;
    graph.function_mutable(k1).work_units = 50'000;
    graph.function_mutable(k2).work_units = 50'000;
    graph.function_mutable(k3).work_units = 50'000;
    graph.function_mutable(sink).work_units = 5'000;
    graph.add_transfer(host, k1, Bytes{40'000}, 40'000);
    graph.add_transfer(k1, k2, Bytes{40'000}, 40'000);
    graph.add_transfer(k2, k3, Bytes{40'000}, 40'000);
    graph.add_transfer(k3, sink, Bytes{40'000}, 40'000);
    schedule = build_schedule(
        "chain", graph,
        {{"k1", 8.0, 1.0, 1000, 1000, true, false, false},
         {"k2", 8.0, 1.0, 1000, 1000, true, false, false},
         {"k3", 8.0, 1.0, 1000, 1000, true, false, false}});
  }

  prof::CommGraph graph;
  prof::FunctionId host, k1, k2, k3, sink;
  AppSchedule schedule;
};

// ---------------------------------------------------------------------------
// Satellite 1: the analytic NoC latency oracle vs the flit-level simulator.
// ---------------------------------------------------------------------------

TEST(NocOracle, IdealLatencyDelegatesToTheOracle) {
  sim::Engine eng;
  const sim::ClockDomain clock{"noc", Frequency::megahertz(150)};
  noc::NetworkConfig config;
  noc::Network network{"noc", eng, clock, noc::Mesh2D{3, 3}, config};
  for (const std::uint64_t bytes : {0ULL, 64ULL, 1024ULL, 100'000ULL}) {
    for (const std::uint32_t hops : {0U, 1U, 4U}) {
      const std::uint64_t cycles = noc::idle_latency_cycles(
          bytes, hops, config.max_packet_payload_bytes,
          config.router.pipeline_cycles);
      EXPECT_EQ(network.ideal_latency(Bytes{bytes}, hops),
                clock.span(Cycles{cycles}));
    }
  }
}

TEST(NocOracle, TracksFlitLevelLatencyOnIdleMesh) {
  // On an idle mesh the analytic oracle must be a sound and reasonably
  // tight model of the simulated wormhole latency: never above the
  // simulation (it ignores per-hop serialization of the body) and within
  // a small constant factor of it.
  const sim::ClockDomain clock{"noc", Frequency::megahertz(150)};
  for (const std::uint64_t bytes : {64ULL, 1024ULL, 16'384ULL}) {
    sim::Engine eng;
    noc::NetworkConfig config;
    noc::Network network{"noc", eng, clock, noc::Mesh2D{3, 3}, config};
    network.attach_adapter(0, "src", noc::AdapterKind::kAccelerator);
    network.attach_adapter(8, "dst", noc::AdapterKind::kLocalMemory);
    Picoseconds delivered{0};
    network.send(0, 8, Bytes{bytes},
                 [&](std::uint64_t, Bytes, Picoseconds at) {
                   delivered = at;
                 });
    eng.run();
    ASSERT_GT(delivered.count(), 0U);
    const std::uint32_t hops = network.mesh().distance(0, 8);
    const Picoseconds oracle = network.ideal_latency(Bytes{bytes}, hops);
    EXPECT_LE(oracle.count(), delivered.count())
        << bytes << " B over " << hops << " hops";
    EXPECT_GE(oracle.count(), delivered.count() / 3)
        << bytes << " B over " << hops << " hops";
  }
}

// ---------------------------------------------------------------------------
// Satellite 2: wait_all names the stuck operation.
// ---------------------------------------------------------------------------

TEST(WaitAll, DeadlockReportsLabelAndSimulatedTime) {
  Chain chain;
  engine::ExecContext ctx(chain.schedule, PlatformConfig{}, nullptr);
  engine::Pending stuck;
  stuck.label = "k2/fetch#1";
  engine::Pending fine;
  fine.done = true;
  try {
    engine::wait_all(ctx.platform(), {&fine, &stuck});
    FAIL() << "wait_all should have thrown";
  } catch (const SimTimeoutError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("k2/fetch#1"), std::string::npos) << message;
    EXPECT_NE(message.find("simulation drained at"), std::string::npos)
        << message;
    ASSERT_EQ(e.stuck_ops().size(), 1U);
    EXPECT_EQ(e.stuck_ops()[0], "k2/fetch#1");
    EXPECT_FALSE(e.watchdog_expired());  // Queue drained, no watchdog.
  }
}

TEST(WaitAll, UnlabeledOpsStillDiagnosed) {
  Chain chain;
  engine::ExecContext ctx(chain.schedule, PlatformConfig{}, nullptr);
  engine::Pending stuck;
  try {
    engine::wait_all(ctx.platform(), {&stuck});
    FAIL() << "wait_all should have thrown";
  } catch (const SimTimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("<unlabeled>"),
              std::string::npos);
    ASSERT_EQ(e.stuck_ops().size(), 1U);
    EXPECT_EQ(e.stuck_ops()[0], "<unlabeled>");
  }
}

// ---------------------------------------------------------------------------
// Satellite 3a: ExecTrace invariants across all variants.
// ---------------------------------------------------------------------------

void expect_trace_invariants(const RunResult& result) {
  const ExecTrace& trace = result.trace;
  constexpr double kEps = 1e-9;

  // Every event is attributed to a real step and, except NoC transfers
  // (which may land after the producing step closed — the run's app-end
  // tracks them) and stalls (which explain the gap before a step), nests
  // inside its step's [start, done] window.
  for (const TraceEvent& event : trace.events()) {
    ASSERT_LT(event.step_index, result.steps.size());
    const StepTiming& step = result.steps[event.step_index];
    EXPECT_LE(event.start_seconds, event.end_seconds + kEps);
    if (event.kind == EventKind::kStall) {
      EXPECT_LE(event.end_seconds, step.start_seconds + kEps);
      continue;
    }
    if (engine::is_annotation(event.kind)) {
      continue;  // Fault/retry/reroute markers may land anywhere.
    }
    EXPECT_GE(event.start_seconds, step.start_seconds - kEps)
        << event.label;
    if (event.kind == EventKind::kNocTransfer) {
      EXPECT_LE(event.end_seconds, result.total_seconds + kEps)
          << event.label;
    } else {
      EXPECT_LE(event.end_seconds, step.done_seconds + kEps)
          << event.label;
    }
  }

  // Per-fabric usage equals the recomputed event sums (annotations — stalls,
  // faults, retries, reroutes — excluded).
  double busy[engine::kFabricCount] = {};
  std::uint64_t bytes[engine::kFabricCount] = {};
  std::uint64_t ops[engine::kFabricCount] = {};
  for (const TraceEvent& event : trace.events()) {
    if (engine::is_annotation(event.kind)) {
      continue;
    }
    const auto f = static_cast<std::size_t>(event.fabric);
    busy[f] += event.end_seconds - event.start_seconds;
    bytes[f] += event.bytes;
    ++ops[f];
  }
  for (std::size_t f = 0; f < engine::kFabricCount; ++f) {
    const engine::FabricUsage& usage =
        trace.usage(static_cast<Fabric>(f));
    EXPECT_NEAR(usage.busy_seconds, busy[f], kEps);
    EXPECT_EQ(usage.bytes, bytes[f]);
    EXPECT_EQ(usage.ops, ops[f]);
  }

  // Fabric attribution is consistent with the flat RunResult totals.
  EXPECT_NEAR(trace.usage(Fabric::kHost).busy_seconds, result.host_seconds,
              1e-9);
  EXPECT_NEAR(trace.usage(Fabric::kKernel).busy_seconds,
              result.kernel_compute_seconds, 1e-9);
}

TEST(ExecTrace, InvariantsHoldForAllVariants) {
  Chain chain;
  PlatformConfig config;
  core::DesignInput input = make_design_input(chain.schedule, config);
  const core::DesignResult design = core::design_interconnect(input);
  core::DesignInput noc_input = input;
  noc_input.enable_shared_memory = false;
  noc_input.enable_adaptive_mapping = false;
  const core::DesignResult noc_only = core::design_interconnect(noc_input);

  const RunResult variants[] = {
      run_software(chain.schedule, config),
      run_baseline(chain.schedule, config),
      run_designed(chain.schedule, design, config),
      run_designed(chain.schedule, noc_only, config, "noc-only"),
      run_crossbar_system(chain.schedule, config),
  };
  for (const RunResult& result : variants) {
    SCOPED_TRACE(result.system_name);
    EXPECT_FALSE(result.trace.empty());
    expect_trace_invariants(result);
  }
}

TEST(ExecTrace, InvariantsHoldOnPaperApps) {
  for (const auto& name : {"canny", "jpeg", "fluid"}) {
    const apps::ProfiledApp app = apps::run_paper_app(name);
    const AppSchedule schedule = app.schedule();
    PlatformConfig config;
    const core::DesignResult design = core::design_interconnect(
        make_design_input(schedule, config));
    const RunResult proposed = run_designed(schedule, design, config);
    SCOPED_TRACE(name);
    expect_trace_invariants(proposed);
  }
}

TEST(ExecTrace, DesignedRunSeparatesFabrics) {
  Chain chain;
  PlatformConfig config;
  const core::DesignResult design = core::design_interconnect(
      make_design_input(chain.schedule, config));
  const RunResult proposed = run_designed(chain.schedule, design, config);
  // The chain's design pairs (k1,k2) in shared memory and puts k2->k3 on
  // the NoC; host I/O goes over the bus — every fabric class shows up.
  EXPECT_GT(proposed.fabric_usage(Fabric::kBus).ops, 0U);
  EXPECT_GT(proposed.fabric_usage(Fabric::kBus).bytes, 0U);
  EXPECT_GT(proposed.fabric_usage(Fabric::kSharedMemory).ops, 0U);
  EXPECT_GT(proposed.fabric_usage(Fabric::kNoc).ops, 0U);
  EXPECT_EQ(proposed.fabric_usage(Fabric::kCrossbar).ops, 0U);
}

TEST(ExecTrace, SoftwareRunUsesOnlyHostAndKernelLanes) {
  Chain chain;
  const RunResult sw = run_software(chain.schedule, PlatformConfig{});
  EXPECT_GT(sw.fabric_usage(Fabric::kHost).ops, 0U);
  EXPECT_GT(sw.fabric_usage(Fabric::kKernel).ops, 0U);
  EXPECT_EQ(sw.fabric_usage(Fabric::kBus).ops, 0U);
  EXPECT_EQ(sw.fabric_usage(Fabric::kNoc).ops, 0U);
}

// ---------------------------------------------------------------------------
// Satellite 3b: crossbar-system edge cases.
// ---------------------------------------------------------------------------

TEST(CrossbarSystem, ZeroByteKernelEdgeStillCompletes) {
  prof::CommGraph graph;
  const auto h = graph.add_function("host");
  const auto a = graph.add_function("a");
  const auto b = graph.add_function("b");
  graph.function_mutable(a).work_units = 10'000;
  graph.function_mutable(b).work_units = 10'000;
  graph.add_transfer(h, a, Bytes{1'000}, 1'000);
  graph.add_transfer(a, b, Bytes{0}, 1);  // Control-only dependency.
  graph.add_transfer(b, h, Bytes{1'000}, 1'000);
  const AppSchedule schedule = build_schedule(
      "zero-edge", graph,
      {{"a", 8.0, 1.0, 100, 100, true, false, false},
       {"b", 8.0, 1.0, 100, 100, true, false, false}});
  const RunResult result =
      run_crossbar_system(schedule, PlatformConfig{});
  EXPECT_GT(result.total_seconds, 0.0);
  // b still gates on a's compute even though no bytes move.
  ASSERT_EQ(result.steps.size(), 3U);
  EXPECT_GE(result.steps[2].start_seconds, result.steps[1].start_seconds);
  expect_trace_invariants(result);
}

TEST(CrossbarSystem, SingleKernelScheduleUsesNoCrossbarPort) {
  prof::CommGraph graph;
  const auto h = graph.add_function("host");
  const auto k = graph.add_function("k");
  graph.function_mutable(k).work_units = 50'000;
  graph.add_transfer(h, k, Bytes{10'000}, 10'000);
  graph.add_transfer(k, h, Bytes{10'000}, 10'000);
  const AppSchedule schedule = build_schedule(
      "single", graph, {{"k", 8.0, 1.0, 100, 100, true, false, false}});
  const RunResult result =
      run_crossbar_system(schedule, PlatformConfig{});
  EXPECT_GT(result.total_seconds, 0.0);
  // No kernel->kernel edge: the crossbar carries nothing; all volume goes
  // over the bus.
  EXPECT_EQ(result.fabric_usage(Fabric::kCrossbar).ops, 0U);
  EXPECT_EQ(result.fabric_usage(Fabric::kBus).bytes, 20'000U);
  expect_trace_invariants(result);
}

// ---------------------------------------------------------------------------
// Chrome-trace exporter and trace-lane renderer.
// ---------------------------------------------------------------------------

TEST(ChromeTrace, ExportsOneCompleteEventPerTraceEvent) {
  Chain chain;
  const RunResult baseline =
      run_baseline(chain.schedule, PlatformConfig{});
  const std::string json =
      engine::chrome_trace_json(baseline.trace, baseline.system_name);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"baseline\""), std::string::npos);
  std::size_t events = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\"");
       pos != std::string::npos; pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, baseline.trace.events().size());
  // Structural sanity: balanced braces/brackets, quotes in pairs.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  std::size_t quotes = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    quotes += c == '"' ? 1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0U);
}

TEST(ChromeTrace, EscapesLabels) {
  ExecTrace trace;
  trace.record({EventKind::kCompute, Fabric::kHost, 0, 0, 0.0, 1.0,
                "a\"b\\c\nd"});
  const std::string json = engine::chrome_trace_json(trace, "t");
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(TraceLanes, RendersOneLanePerUsedFabric) {
  Chain chain;
  PlatformConfig config;
  const core::DesignResult design = core::design_interconnect(
      make_design_input(chain.schedule, config));
  const RunResult proposed = run_designed(chain.schedule, design, config);
  const std::string lanes = render_trace_lanes(proposed);
  EXPECT_NE(lanes.find("host"), std::string::npos);
  EXPECT_NE(lanes.find("kernel"), std::string::npos);
  EXPECT_NE(lanes.find("bus"), std::string::npos);
  EXPECT_NE(lanes.find("noc"), std::string::npos);
  EXPECT_NE(lanes.find("shared-mem"), std::string::npos);
  // No crossbar lane (the legend mentions the glyph, lanes start lines).
  EXPECT_EQ(lanes.find("\ncrossbar"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault paths: dead links, NoC->bus degradation, and the deadlock watchdog.
// ---------------------------------------------------------------------------

/// host -> k1 -> k2 -> sink with a hand-built design that puts the k1->k2
/// edge on a 2x2 mesh: k1's kernel at node 0, k2's local memory at node 3.
struct NocPair {
  NocPair() {
    host = graph.add_function("host");
    k1 = graph.add_function("k1");
    k2 = graph.add_function("k2");
    sink = graph.add_function("sink");
    graph.function_mutable(host).work_units = 10'000;
    graph.function_mutable(k1).work_units = 50'000;
    graph.function_mutable(k2).work_units = 50'000;
    graph.function_mutable(sink).work_units = 5'000;
    graph.add_transfer(host, k1, Bytes{40'000}, 40'000);
    graph.add_transfer(k1, k2, Bytes{40'000}, 40'000);
    graph.add_transfer(k2, sink, Bytes{40'000}, 40'000);
    schedule = build_schedule(
        "noc-pair", graph,
        {{"k1", 8.0, 1.0, 1000, 1000, true, false, false},
         {"k2", 8.0, 1.0, 1000, 1000, true, false, false}});

    core::KernelInstance i1;
    i1.name = "k1";
    i1.spec_index = 0;
    i1.function = k1;
    core::KernelInstance i2;
    i2.name = "k2";
    i2.spec_index = 1;
    i2.function = k2;
    design.instances = {i1, i2};
    core::NocPlan plan;
    plan.mesh_width = 2;
    plan.mesh_height = 2;
    plan.attachments = {{0, core::NocNodeKind::kKernel, 0},
                        {1, core::NocNodeKind::kLocalMemory, 3}};
    design.noc = plan;
  }

  prof::CommGraph graph;
  prof::FunctionId host, k1, k2, sink;
  AppSchedule schedule;
  core::DesignResult design;
};

TEST(FaultPaths, DisconnectedPairWithoutDegradationTimesOut) {
  // Dead links isolate node 0 (k1's kernel) entirely; with degradation
  // disabled the send is attempted, black-holed, and the deliberately
  // deadlocked schedule must surface as a SimTimeoutError naming the
  // stuck NoC op and the simulated time.
  NocPair pair;
  PlatformConfig config;
  config.faults.dead_links = {{0, 1}, {0, 2}};
  config.faults.resilience.noc_degrade_to_bus = false;
  try {
    (void)run_designed(pair.schedule, pair.design, config);
    FAIL() << "disconnected NoC pair should have timed out";
  } catch (const SimTimeoutError& e) {
    ASSERT_FALSE(e.stuck_ops().empty());
    EXPECT_NE(e.stuck_ops()[0].find("/noc#0->1"), std::string::npos)
        << e.stuck_ops()[0];
    EXPECT_NE(std::string(e.what()).find("never completed"),
              std::string::npos);
    EXPECT_FALSE(e.watchdog_expired());  // Queue drained: a true deadlock.
  }
}

TEST(FaultPaths, DisconnectedPairDegradesToBusAndCompletes) {
  NocPair pair;
  PlatformConfig clean_config;
  const RunResult clean =
      run_designed(pair.schedule, pair.design, clean_config);
  EXPECT_EQ(clean.fabric_usage(Fabric::kNoc).bytes, 40'000U);

  PlatformConfig config;
  config.faults.dead_links = {{0, 1}, {0, 2}};  // Degradation on (default).
  const RunResult degraded =
      run_designed(pair.schedule, pair.design, config);

  // The run completes with the edge moved to a bus round trip: the NoC
  // carries nothing, the bus carries the edge twice (write-back + fetch).
  EXPECT_GT(degraded.total_seconds, 0.0);
  EXPECT_EQ(degraded.fabric_usage(Fabric::kNoc).bytes, 0U);
  EXPECT_EQ(degraded.fabric_usage(Fabric::kBus).bytes,
            clean.fabric_usage(Fabric::kBus).bytes + 2U * 40'000U);
  EXPECT_EQ(degraded.fault_stats.degraded_edges, 1U);
  EXPECT_EQ(degraded.fault_stats.messages_lost, 0U);

  // The degradation is visible in the trace and the Chrome export.
  bool saw_reroute = false;
  for (const TraceEvent& event : degraded.trace.events()) {
    saw_reroute = saw_reroute || event.kind == EventKind::kReroute;
  }
  EXPECT_TRUE(saw_reroute);
  const std::string json =
      engine::chrome_trace_json(degraded.trace, degraded.system_name);
  EXPECT_NE(json.find("\"reroute\""), std::string::npos);
}

TEST(FaultPaths, DeadLinkWithSurvivingPathReroutesInPlace) {
  // Killing only link 0-1 leaves 0 -> 2 -> 3 alive: the run completes on
  // the NoC with the detour annotated, no degradation.
  NocPair pair;
  PlatformConfig config;
  config.faults.dead_links = {{0, 1}};
  const RunResult result = run_designed(pair.schedule, pair.design, config);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_EQ(result.fabric_usage(Fabric::kNoc).bytes, 40'000U);
  EXPECT_EQ(result.fault_stats.degraded_edges, 0U);
  EXPECT_EQ(result.fault_stats.noc_reroutes, 1U);
  bool saw_reroute = false;
  for (const TraceEvent& event : result.trace.events()) {
    if (event.kind == EventKind::kReroute) {
      saw_reroute = true;
      EXPECT_EQ(event.fabric, Fabric::kNoc);
      EXPECT_NE(event.label.find("around dead link"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_reroute);
}

}  // namespace
}  // namespace hybridic::sys
