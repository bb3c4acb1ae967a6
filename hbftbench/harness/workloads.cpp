// The in-process workloads of the benchmark. Each pass calls the program's
// public entry points and times them from outside; every pass's outputs are
// checked against values the benchmark computes itself (the guest kernels'
// checksums, the echoed payloads) or against properties the method must have
// (lockstep fingerprints, environment consistency, placement arithmetic).
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/snapshot.hpp"
#include "fleet/fleet.hpp"
#include "fleet/placement.hpp"
#include "fleet/traffic.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft_bench {

using hbft::FleetConfig;
using hbft::FleetResult;
using hbft::Machine;
using hbft::Scenario;
using hbft::ScenarioResult;
using hbft::SimTime;
using hbft::World;
using hbft::WorkloadSpec;

namespace {

// splitmix64: the benchmark's input generator, seeded by --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

double Ms(SimTime t) { return t.seconds() * 1e3; }

// The net-echo guest's checksum (wl_netecho): for every packet, the sum of
// its bytes plus its length, in 32-bit arithmetic.
uint32_t EchoChecksum(const std::vector<std::vector<uint8_t>>& payloads) {
  uint32_t sum = 0;
  for (const std::vector<uint8_t>& p : payloads) {
    for (uint8_t b : p) {
      sum += b;
    }
    sum += static_cast<uint32_t>(p.size());
  }
  return sum;
}

// Host-side counters of one machine layer, summed over a world's machines.
struct MachineCounters {
  uint64_t instr_retired = 0;
  uint64_t tcache_builds = 0;
  uint64_t tcache_hits = 0;
  uint64_t idle_skipped = 0;

  void Add(const Machine& m) {
    instr_retired += m.cpu().instret;
    tcache_builds += m.tcache_stats().builds;
    tcache_hits += m.tcache_stats().hits;
    idle_skipped += m.idle_skipped_instructions();
  }
  MachineCounters& operator+=(const MachineCounters& o) {
    instr_retired += o.instr_retired;
    tcache_builds += o.tcache_builds;
    tcache_hits += o.tcache_hits;
    idle_skipped += o.idle_skipped;
    return *this;
  }
};

MachineCounters CountMachines(World& world) {
  MachineCounters c;
  if (world.bare() != nullptr) {
    c.Add(world.bare()->machine());
  }
  for (size_t i = 0; i < world.replica_count(); ++i) {
    c.Add(world.replica(i)->hypervisor().machine());
  }
  return c;
}

// Host cost of one timed pass, split the way the end-to-end metrics are.
struct PassHost {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<double> sys_s;
  std::vector<double> minor_faults;

  void Add(double setup, double wall, const Usage& before, const Usage& after) {
    setup_s.push_back(setup);
    run_s.push_back(wall);
    cpu_s.push_back(after.cpu_s() - before.cpu_s());
    sys_s.push_back(after.sys_s - before.sys_s);
    minor_faults.push_back(static_cast<double>(after.minor_faults - before.minor_faults));
  }
  void Emit(RunOutcome* out) const {
    out->Set("setup_s", Median(setup_s), "s");
    out->Set("run_s", Median(run_s), "s");
    out->Set("cpu_s", Median(cpu_s), "s");
    out->Set("machine.sys_s", Median(sys_s), "s");
    out->Set("machine.minor_faults", Median(minor_faults), "count");
  }
};

// Counters read from a replicated run's report: hypervisor and protocol
// counters of the replica that drove the devices first (the primary), the
// promotions of every replica, and the transport summed over every channel.
void EmitReplicationLayers(const ScenarioResult& r, RunOutcome* out) {
  const hbft::Hypervisor::Stats& hv = r.primary_hv_stats();
  out->Set("hypervisor.privileged_simulated", static_cast<double>(hv.privileged_simulated),
           "count");
  out->Set("hypervisor.traps_reflected", static_cast<double>(hv.traps_reflected), "count");
  out->Set("hypervisor.tlb_fills", static_cast<double>(hv.tlb_fills), "count");
  out->Set("hypervisor.interrupts_delivered", static_cast<double>(hv.interrupts_delivered),
           "count");
  out->Set("hypervisor.epochs_completed", static_cast<double>(hv.epochs_completed), "count");
  out->Set("hypervisor.io_commands", static_cast<double>(hv.io_commands), "count");

  uint64_t io_issued = 0;
  uint64_t io_suppressed = 0;
  uint64_t promotions = 0;
  for (const ScenarioResult::NodeReport& node : r.nodes) {
    io_issued += node.stats.io_issued;
    io_suppressed += node.stats.io_suppressed;
    promotions += node.promoted ? 1 : 0;
  }
  out->Set("devices.io_issued", static_cast<double>(io_issued), "count");
  out->Set("devices.io_suppressed", static_cast<double>(io_suppressed), "count");

  const hbft::ReplicaNodeBase::Stats& core = r.primary_stats();
  out->Set("core.epochs", static_cast<double>(core.epochs), "count");
  out->Set("core.messages_sent", static_cast<double>(core.messages_sent), "count");
  out->Set("core.env_values", static_cast<double>(core.env_values), "count");
  out->Set("core.relays_forwarded", static_cast<double>(core.relays_forwarded), "count");
  out->Set("core.uncertain_synthesised", static_cast<double>(core.uncertain_synthesised),
           "count");
  out->Set("core.promotions", static_cast<double>(promotions), "count");
  out->Set("core.ack_wait_ms", Ms(core.ack_wait_time), "ms");
  out->Set("core.boundary_ms", Ms(core.boundary_time), "ms");

  hbft::Channel::Counters net;
  for (const ScenarioResult::ChannelReport& ch : r.channels) {
    net.messages_enqueued += ch.counters.messages_enqueued;
    net.wire_sends += ch.counters.wire_sends;
    net.retransmits += ch.counters.retransmits;
    net.rx_duplicates += ch.counters.rx_duplicates + ch.counters.rx_gaps;
    net.bytes_on_wire += ch.counters.bytes_on_wire;
    net.bytes_delivered += ch.counters.bytes_delivered;
  }
  out->Set("net.messages_enqueued", static_cast<double>(net.messages_enqueued), "count");
  out->Set("net.wire_sends", static_cast<double>(net.wire_sends), "count");
  out->Set("net.retransmits", static_cast<double>(net.retransmits), "count");
  out->Set("net.rx_discards", static_cast<double>(net.rx_duplicates), "count");
  out->Set("net.bytes_on_wire", static_cast<double>(net.bytes_on_wire), "bytes");
  out->Set("net.bytes_delivered", static_cast<double>(net.bytes_delivered), "bytes");
  out->Set("net.goodput_ratio",
           net.bytes_on_wire == 0 ? 0.0
                                  : static_cast<double>(net.bytes_delivered) /
                                        static_cast<double>(net.bytes_on_wire),
           "ratio");

  uint64_t bytes = 0, full = 0, zero_runs = 0, delta = 0, rounds = 0;
  for (const hbft::ResyncReport& rs : r.resyncs) {
    bytes += rs.bytes;
    full += rs.full_pages;
    zero_runs += rs.zero_run_chunks;
    delta += rs.delta_pages;
    rounds += rs.rounds;
  }
  out->Set("core.resync_bytes", static_cast<double>(bytes), "bytes");
  out->Set("core.resync_full_pages", static_cast<double>(full), "count");
  out->Set("core.resync_zero_run_chunks", static_cast<double>(zero_runs), "count");
  out->Set("core.resync_delta_pages", static_cast<double>(delta), "count");
  out->Set("core.resync_rounds", static_cast<double>(rounds), "count");
}

void EmitMachineCounters(const MachineCounters& m, RunOutcome* out) {
  out->Set("machine.instr_retired", static_cast<double>(m.instr_retired), "count");
  out->Set("machine.tcache_builds", static_cast<double>(m.tcache_builds), "count");
  out->Set("machine.tcache_hits", static_cast<double>(m.tcache_hits), "count");
  out->Set("machine.idle_skipped", static_cast<double>(m.idle_skipped), "count");
}

// Captures `source` with its memory and restores the snapshot into a machine
// of the same configuration, five times; the restored machine must
// fingerprint like the source.
void ProbeSnapshot(Machine& source, SpanRecorder* recorder, RunOutcome* out) {
  std::vector<double> capture_s, restore_s;
  size_t bytes = 0;
  for (int i = 0; i < 5; ++i) {
    hbft::Snapshot snap;
    {
      hbft::SnapshotWriter w(&snap);
      Timed t(recorder, "Machine::CaptureState");
      source.CaptureState(w, true);
      capture_s.push_back(t.Stop());
    }
    bytes = snap.size();
    Machine target(source.config());
    hbft::SnapshotReader r(snap);
    Timed t(recorder, "Machine::RestoreState");
    const bool ok = target.RestoreState(r, true);
    restore_s.push_back(t.Stop());
    out->Check(ok && target.Fingerprint() == source.Fingerprint(),
               "snapshot restore does not reproduce the captured machine");
  }
  out->Set("machine.snapshot_bytes", static_cast<double>(bytes), "bytes");
  out->Set("machine.capture_ms", Median(capture_s) * 1e3, "ms");
  out->Set("machine.restore_ms", Median(restore_s) * 1e3, "ms");
}

// One pass of a replicated scenario and its bare reference, each call timed
// from outside: BuildWorld (set-up), World::Run, CollectResult, the bare
// Scenario::Run() and, when asked, the environment-consistency check.
struct PairPass {
  std::unique_ptr<World> world;
  std::unique_ptr<World> bare_world;
  ScenarioResult r;
  ScenarioResult b;
  hbft::ConsistencyResult consistency;
};

// Host samples of the timed pairs, and the deterministic figures of the
// first pass (modelled time repeats exactly for a seed).
struct PairSamples {
  PassHost host;
  bool have_first = false;
  MachineCounters machines;
  double bare_instr = 0.0;
  double completion_ms = 0.0;
};

PairPass RunPair(const Scenario& replicated, const Scenario& bare, bool env_check, bool timed,
                 SpanRecorder* recorder, PairSamples* samples) {
  PairPass p;
  Timed build(recorder, "Scenario::BuildWorld");
  p.world = replicated.BuildWorld();
  const double setup = build.Stop();
  const Usage u1 = Usage::Now();
  const double w1 = WallSeconds();
  {
    Timed t(recorder, "World::Run");
    p.world->Run(&p.r);
  }
  {
    Timed t(recorder, "Scenario::CollectResult");
    replicated.CollectResult(*p.world, &p.r);
  }
  {
    // Scenario::Run() is exactly these three calls; they are made one by one
    // to reach the bare machine's counters.
    Timed t(recorder, "Scenario::AsBare().Run()");
    p.bare_world = bare.BuildWorld();
    p.bare_world->Run(&p.b);
    bare.CollectResult(*p.bare_world, &p.b);
  }
  if (env_check) {
    Timed t(recorder, "CheckEnvConsistency");
    p.consistency = hbft::CheckEnvConsistency(p.b.env_trace, p.r.env_trace, p.r.issuer_chain());
  }
  const double w2 = WallSeconds();
  const Usage u2 = Usage::Now();
  if (timed) {
    samples->host.Add(setup, w2 - w1, u1, u2);
  }
  return p;
}

// Keeps the first checked pass's counters.
void KeepFirst(PairPass& p, PairSamples* samples, RunOutcome* out) {
  samples->have_first = true;
  EmitReplicationLayers(p.r, out);
  samples->machines = CountMachines(*p.world);
  const MachineCounters bare = CountMachines(*p.bare_world);
  samples->machines += bare;
  // Instructions the bare machine dispatched (idle-loop fast-forward skips
  // the rest without executing them).
  samples->bare_instr = static_cast<double>(bare.instr_retired - bare.idle_skipped);
  samples->completion_ms = Ms(p.r.completion_time);
}

// Host-time and machine metrics of a pair workload; the per-layer host times
// come from the traced run's spans.
void EmitPair(const PairSamples& samples, SpanRecorder* recorder, size_t first_span,
              Machine& last_active, RunOutcome* out) {
  samples.host.Emit(out);
  EmitMachineCounters(samples.machines, out);
  if (!recorder->enabled()) {
    return;
  }
  const double bare_run_s = MedianSpan(*recorder, "Scenario::AsBare().Run()", first_span);
  out->Set("machine.bare_run_s", bare_run_s, "s");
  // Bare dispatch speed: dispatched instructions per host second.
  out->Set("machine.mips", bare_run_s > 0.0 ? samples.bare_instr / bare_run_s / 1e6 : 0.0,
           "MIPS");
  out->Set("sim.build_world_ms",
           MedianSpan(*recorder, "Scenario::BuildWorld", first_span) * 1e3, "ms");
  const double run_s = MedianSpan(*recorder, "World::Run", first_span);
  out->Set("sim.world_run_s", run_s, "s");
  out->Set("sim.collect_ms", MedianSpan(*recorder, "Scenario::CollectResult", first_span) * 1e3,
           "ms");
  out->Set("sim.env_check_ms", MedianSpan(*recorder, "CheckEnvConsistency", first_span) * 1e3,
           "ms");
  // Modelled seconds the replicated world advances per host second.
  out->Set("sim.sim_s_per_host_s", run_s > 0.0 ? samples.completion_ms / 1e3 / run_s : 0.0,
           "ratio");
  ProbeSnapshot(last_active, recorder, out);
}

// Transcription of wl_cpu in src/guest/workloads.cpp: integer mix, a
// 16-word copy from buf1 (never written, so zero) into buf2, and the leaf
// call, all in 32-bit arithmetic.
uint32_t CpuKernelChecksum(uint32_t iterations) {
  const uint32_t buf1[16] = {};
  uint32_t s1 = 0x12345678u;
  for (uint32_t i = 0; i < iterations; ++i) {
    uint32_t t1 = i + s1;
    s1 ^= t1 * t1;
    s1 ^= s1 >> 13;
    s1 += s1 << 7;
    if ((i & 1u) != 0) {
      s1 += 17;
    } else {
      s1 ^= 0x5A5Au;
    }
    for (int k = 0; k < 16; ++k) {
      t1 = buf1[k] + i;  // Stored to buf2, which nothing reads back.
      s1 ^= t1;
    }
    s1 ^= s1 << 3;  // cpu_leaf.
    s1 += s1 >> 5;
  }
  return s1;
}

}  // namespace

// ---------------------------------------------------------------------------
// cpu-epoch1k: the paper's CPU-intensive guest on a primary + backup over an
// ideal link with 1K-instruction epochs, and its bare reference.
// ---------------------------------------------------------------------------
RunOutcome RunCpuEpoch1k(const RunOptions& options, SpanRecorder* recorder) {
  RunOutcome out;
  Rng rng(options.seed);
  WorkloadSpec spec = WorkloadSpec::PaperCpu();
  // ~3.4M guest instructions; the seed moves the length by under 1.3%.
  spec.iterations = 20000 + static_cast<uint32_t>(rng.Below(256));
  const Scenario replicated =
      Scenario::Replicated(spec).Epoch(1024).AuditLockstep().Seed(options.seed);
  const Scenario bare = replicated.AsBare();
  const uint32_t expected =
      CpuKernelChecksum(spec.iterations) + (options.corrupt == "checksum" ? 1u : 0u);

  PairSamples samples;
  std::unique_ptr<World> last_world;
  const size_t first_span = RunPasses(options, recorder, [&](bool timed) {
    PairPass p = RunPair(replicated, bare, false, timed, recorder, &samples);
    Timed check(recorder, "oracle");
    const bool ft_ok = p.r.completed && p.r.exited_flag == 1 && p.r.exit_code == 0;
    const bool bare_ok = p.b.completed && p.b.exited_flag == 1 && p.b.exit_code == 0;
    out.attempted += 2;
    out.failed += (ft_ok ? 0 : 1) + (bare_ok ? 0 : 1);
    if (ft_ok) {
      out.Check(p.r.guest_checksum == expected,
                "replicated checksum " + std::to_string(p.r.guest_checksum) + " != reference " +
                    std::to_string(expected));
      const std::vector<uint64_t>& primary = p.r.primary_boundary_fingerprints();
      out.Check(!primary.empty() && primary == p.r.backup_boundary_fingerprints(),
                "primary and backup boundary fingerprints diverge (lockstep audit)");
    }
    if (bare_ok) {
      out.Check(p.b.guest_checksum == expected, "bare checksum " +
                                                    std::to_string(p.b.guest_checksum) +
                                                    " != reference " + std::to_string(expected));
    }
    if (!samples.have_first && ft_ok && bare_ok) {
      out.Set("np_ratio", hbft::NormalizedPerformance(p.r, p.b), "ratio");
      KeepFirst(p, &samples, &out);
    }
    last_world = std::move(p.world);
  });
  EmitPair(samples, recorder, first_span, last_world->active_machine(), &out);
  return out;
}

// ---------------------------------------------------------------------------
// echo-repair: the net-echo guest on a 1 + 2 chain over links that drop 2% of
// frames; the active replica is killed mid-run, a fresh replica rejoins by
// live state transfer, and the active replica is killed again after it.
// ---------------------------------------------------------------------------
namespace {

constexpr uint32_t kEchoPackets = 240;
// Above the echo guest's ~27-30 ms service time: the queue does not grow.
constexpr int64_t kEchoIntervalMs = 40;
constexpr int64_t kEchoStartMs = 100;

// Unique payloads from the seed: the first two bytes carry the index, the
// rest are seeded random bytes. Lengths depend on the index alone, so every
// seed asks the guest for the same work at the same instants.
std::vector<std::vector<uint8_t>> EchoPayloads(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> payloads;
  for (uint32_t i = 0; i < kEchoPackets; ++i) {
    std::vector<uint8_t> p(16 + 8 * (i % 8));
    p[0] = static_cast<uint8_t>(i & 0xFF);
    p[1] = static_cast<uint8_t>(i >> 8);
    for (size_t k = 2; k < p.size(); ++k) {
      p[k] = static_cast<uint8_t>(rng.Next());
    }
    payloads.push_back(std::move(p));
  }
  return payloads;
}

}  // namespace

RunOutcome RunEchoRepair(const RunOptions& options, SpanRecorder* recorder) {
  RunOutcome out;
  const std::vector<std::vector<uint8_t>> payloads = EchoPayloads(options.seed);
  std::vector<std::vector<uint8_t>> expected_payloads = payloads;
  if (options.corrupt == "payload") {
    expected_payloads[kEchoPackets / 2][2] ^= 0xFF;
  }
  const uint32_t expected_checksum =
      EchoChecksum(payloads) + (options.corrupt == "checksum" ? 1u : 0u);

  // The seed varies the payload bytes only. The simulation seed (link drops,
  // machine randomness) and the kill instant stay fixed: failover hangs for
  // rare kill instants (about one in two hundred), so a seeded timeline would
  // fail on some seeds. See FOUND in CHANGES.md.
  hbft::LinkFaults faults;
  faults.drop_probability = 0.02;
  Scenario scenario = Scenario::Replicated(WorkloadSpec::NetEcho(kEchoPackets))
                          .Backups(2)
                          .Device(hbft::DeviceId::kNic)
                          .LinkFaults(faults);
  std::vector<SimTime> arrivals;
  for (uint32_t i = 0; i < kEchoPackets; ++i) {
    arrivals.push_back(SimTime::Millis(kEchoStartMs + kEchoIntervalMs * i));
    scenario.InjectPacket(payloads[i], arrivals.back());
  }
  // First kill a quarter of the way through the traffic, between two
  // arrivals.
  const SimTime kill =
      SimTime::Millis(kEchoStartMs + kEchoIntervalMs * (kEchoPackets / 4) + kEchoIntervalMs / 2);
  scenario.FailAtTime(kill).RejoinAfterFail(SimTime::Millis(20)).FailAfterResync(
      SimTime::Millis(10));
  const Scenario bare = scenario.AsBare();
  std::string expected_console;
  for (uint32_t i = 0; i < kEchoPackets; ++i) {
    expected_console.push_back(static_cast<char>('0' + i % 10));
  }

  PairSamples samples;
  std::unique_ptr<World> last_world;
  const size_t first_span = RunPasses(options, recorder, [&](bool timed) {
    PairPass p = RunPair(scenario, bare, true, timed, recorder, &samples);
    Timed check(recorder, "oracle");
    // One operation per injected packet: it fails unless its exact bytes
    // were echoed. Every transmitted packet must be one of the payloads.
    std::vector<double> latency_ms;
    uint64_t missing = 0;
    for (uint32_t i = 0; i < kEchoPackets; ++i) {
      auto echo = std::find_if(p.r.nic_trace.begin(), p.r.nic_trace.end(),
                               [&](const hbft::NicTraceEntry& e) {
                                 return e.bytes == expected_payloads[i];
                               });
      if (echo == p.r.nic_trace.end()) {
        ++missing;
      } else {
        latency_ms.push_back(Ms(echo->time - arrivals[i]));
      }
    }
    out.attempted += kEchoPackets;
    out.failed += missing;
    for (const hbft::NicTraceEntry& e : p.r.nic_trace) {
      out.Check(std::find(payloads.begin(), payloads.end(), e.bytes) != payloads.end(),
                "the NIC transmitted bytes that are no injected payload");
    }
    out.Check(p.r.completed && p.r.exited_flag == 1, "replicated run did not exit cleanly");
    out.Check(p.b.completed && p.b.exited_flag == 1, "bare run did not exit cleanly");
    out.Check(p.r.guest_checksum == expected_checksum && p.b.guest_checksum == expected_checksum,
              "guest checksum " + std::to_string(p.r.guest_checksum) + " (bare " +
                  std::to_string(p.b.guest_checksum) + ") != reference " +
                  std::to_string(expected_checksum));
    out.Check(p.b.console_output == expected_console, "bare console digits are wrong");
    out.Check(p.r.console_output == expected_console,
              "replicated console digits are wrong: " + p.r.console_output);
    out.Check(p.consistency.ok, "env consistency against the bare run: " + p.consistency.detail);
    std::vector<SimTime> promoted_at;
    for (const ScenarioResult::NodeReport& node : p.r.nodes) {
      if (node.promoted) {
        promoted_at.push_back(node.promotion_time);
      }
    }
    out.Check(promoted_at.size() == 2 && p.r.crash_times.size() == 2,
              "expected 2 kills and 2 promotions, saw " + std::to_string(p.r.crash_times.size()) +
                  " and " + std::to_string(promoted_at.size()));
    out.Check(p.r.resyncs.size() == 1 && p.r.resyncs[0].completed,
              "expected one completed live state transfer");

    if (!samples.have_first && out.errors.empty() && missing == 0) {
      out.Set("np_ratio", hbft::NormalizedPerformance(p.r, p.b), "ratio");
      // Outage: each injected kill to the promotion that ended it.
      std::sort(promoted_at.begin(), promoted_at.end());
      double outage_ms = 0.0;
      for (size_t k = 0; k < promoted_at.size(); ++k) {
        outage_ms += Ms(promoted_at[k] - p.r.crash_times[k]);
      }
      out.Set("outage_ms", outage_ms / static_cast<double>(promoted_at.size()), "ms");
      out.Set("resync_ms", Ms(p.r.resyncs[0].join_time - p.r.resyncs[0].start), "ms");
      out.Set("sim_req_p50_ms", Median(latency_ms), "ms");
      out.Set("sim_req_tail_ms", Tail(latency_ms), "ms");
      KeepFirst(p, &samples, &out);
    }
    last_world = std::move(p.world);
  });
  EmitPair(samples, recorder, first_span, last_world->active_machine(), &out);
  return out;
}

// ---------------------------------------------------------------------------
// fleet-storm: tens of anti-affinity chains on a handful of hosts, open-loop
// echo traffic below service capacity, a two-host storm with repairs, and
// bare-twin verification.
// ---------------------------------------------------------------------------
namespace {

constexpr size_t kFleetChains = 32;
constexpr size_t kFleetHosts = 8;
constexpr size_t kFleetStormHosts = 2;

// The seed drives every chain's machine and device randomness; the storm
// instant is fixed, because moving it moves the work a pass does.
FleetConfig FleetStormConfig(uint64_t seed) {
  FleetConfig config;
  config.chains = kFleetChains;
  config.hosts = kFleetHosts;
  config.backups = 1;
  config.placement = hbft::PlacementPolicy::kAntiAffinity;
  config.seed = seed;
  config.traffic.requests_per_chain = 40;
  config.traffic.start = SimTime::Millis(100);
  config.traffic.interval = SimTime::Millis(40);  // Below service capacity.
  config.traffic.payload_bytes = 32;
  for (size_t h : hbft::StormHosts(kFleetHosts, kFleetStormHosts)) {
    config.host_failures.push_back(hbft::HostFailure{h, SimTime::Millis(500)});
  }
  config.verify = true;
  // One thread: with two, wall time tracked how many vCPUs other tenants of
  // a shared host left free (+84% between two sets of runs while CPU time
  // moved +18%). The parallel path is held to this result by
  // CheckFleetThreadIdentity.
  config.threads = 1;
  return config;
}

// Chain `c`'s scenario, built the way Fleet::Run builds it (src/fleet/fleet.cpp).
Scenario FleetChainScenario(const FleetConfig& config, size_t c) {
  Scenario scenario = Scenario::Replicated(
      WorkloadSpec::NetEcho(static_cast<uint32_t>(config.traffic.requests_per_chain)));
  scenario.Backups(config.backups)
      .Device(hbft::DeviceId::kNic)
      .Seed(config.seed + 1000003ULL * c)
      .MaxTime(config.max_time);
  for (uint64_t i = 0; i < config.traffic.requests_per_chain; ++i) {
    scenario.InjectPacket(hbft::EncodeRequest(static_cast<uint32_t>(c), static_cast<uint32_t>(i),
                                              config.traffic.payload_bytes),
                          hbft::RequestArrival(config.traffic, i));
  }
  return scenario;
}

}  // namespace

RunOutcome RunFleetStorm(const RunOptions& options, SpanRecorder* recorder) {
  RunOutcome out;
  const FleetConfig config = FleetStormConfig(options.seed);

  // Placement arithmetic, replayed apart from the fleet: which replicas the
  // storm takes, and how many of them are primaries.
  std::set<size_t> stormed;
  for (const hbft::HostFailure& f : config.host_failures) {
    stormed.insert(f.host);
  }
  hbft::Placement placement(config.placement, config.hosts);
  std::vector<size_t> expected_lost(config.chains, 0);
  size_t expected_killed = 0;
  size_t expected_failovers = 0;
  for (size_t c = 0; c < config.chains; ++c) {
    const std::vector<size_t> hosts =
        placement.AssignChain(static_cast<size_t>(config.backups) + 1);
    for (size_t pos = 0; pos < hosts.size(); ++pos) {
      if (stormed.count(hosts[pos]) != 0) {
        ++expected_lost[c];
        ++expected_killed;
        expected_failovers += pos == 0 ? 1 : 0;
      }
    }
  }
  // Every chain's guest checksum, from its request payloads.
  std::vector<uint32_t> expected_checksum(config.chains);
  for (size_t c = 0; c < config.chains; ++c) {
    std::vector<std::vector<uint8_t>> requests;
    for (uint64_t i = 0; i < config.traffic.requests_per_chain; ++i) {
      requests.push_back(hbft::EncodeRequest(static_cast<uint32_t>(c), static_cast<uint32_t>(i),
                                             config.traffic.payload_bytes));
    }
    expected_checksum[c] = EchoChecksum(requests) + (options.corrupt == "checksum" ? 1u : 0u);
  }

  std::vector<Scenario> chain_scenarios;
  for (size_t c = 0; c < config.chains; ++c) {
    chain_scenarios.push_back(FleetChainScenario(config, c));
  }

  PassHost host;
  bool first = true;
  const size_t first_span = RunPasses(options, recorder, [&](bool timed) {
    // Set-up: the Fleet constructor, plus building every chain's world. The
    // fleet builds its chains inside Fleet::Run (so that time is in run_s as
    // well); the harness builds the same scenarios from outside, one at a
    // time, to time that set-up on its own.
    Timed build(recorder, "Fleet::Fleet");
    auto fleet = std::make_unique<hbft::Fleet>(config);
    double setup = build.Stop();
    for (const Scenario& chain : chain_scenarios) {
      Timed t(recorder, "Scenario::BuildWorld");
      std::unique_ptr<World> world = chain.BuildWorld();
      setup += t.Stop();
    }
    const Usage u1 = Usage::Now();
    const double w1 = WallSeconds();
    FleetResult result;
    {
      Timed t(recorder, "Fleet::Run");
      result = fleet->Run();
    }
    const double w2 = WallSeconds();
    const Usage u2 = Usage::Now();
    fleet.reset();
    if (timed) {
      host.Add(setup, w2 - w1, u1, u2);
    }

    Timed check(recorder, "oracle");
    out.attempted += result.requests_total;
    out.failed += result.requests_total - result.requests_served;
    out.Check(result.requests_total == config.chains * config.traffic.requests_per_chain,
              "fleet issued " + std::to_string(result.requests_total) + " requests");
    size_t killed = 0;
    size_t queue_peak = 0;
    for (const hbft::FleetHostReport& h : result.hosts) {
      killed += h.replicas_killed;
      queue_peak = std::max(queue_peak, h.repair_queue_peak);
      out.Check(h.failed == (stormed.count(h.host) != 0), "wrong set of failed hosts");
    }
    out.Check(killed == expected_killed, "storm killed " + std::to_string(killed) +
                                             " replicas, placement put " +
                                             std::to_string(expected_killed) + " there");
    out.Check(result.repairs == killed, "repairs " + std::to_string(result.repairs) +
                                            " != replicas killed " + std::to_string(killed));
    out.Check(result.failovers == expected_failovers, "failovers " +
                                                          std::to_string(result.failovers) +
                                                          " != primaries on stormed hosts " +
                                                          std::to_string(expected_failovers));
    for (const hbft::FleetChainReport& c : result.chains) {
      out.Check(c.completed && c.env_consistent,
                "chain " + std::to_string(c.chain) + " incomplete or env-inconsistent");
      out.Check(expected_lost[c.chain] <= 1 && c.replicas_lost == expected_lost[c.chain],
                "chain " + std::to_string(c.chain) + " lost " + std::to_string(c.replicas_lost) +
                    " replicas");
      out.Check(c.guest_checksum == expected_checksum[c.chain],
                "chain " + std::to_string(c.chain) + " checksum " +
                    std::to_string(c.guest_checksum) + " != reference " +
                    std::to_string(expected_checksum[c.chain]));
    }

    if (first && out.errors.empty()) {
      first = false;
      // Outage from the time-based availability: each chain's merged
      // kill-to-promotion windows over the makespan.
      double outage_ms = 0.0;
      for (const hbft::FleetChainReport& c : result.chains) {
        outage_ms += (1.0 - c.availability) * Ms(result.makespan);
      }
      out.Set("outage_ms", result.failovers > 0 ? outage_ms / result.failovers : 0.0, "ms");
      out.Set("sim_req_p50_ms", result.latency_ms.p50, "ms");
      // p99 of 1280 requests: 12 samples lie beyond it.
      out.Set("sim_req_tail_ms", result.latency_ms.p99, "ms");
      const size_t machines = config.chains * (static_cast<size_t>(config.backups) + 1) +
                              result.repairs + result.chains_completed;
      out.Set("fleet.machines", static_cast<double>(machines), "count");
      out.Set("fleet.failovers", static_cast<double>(result.failovers), "count");
      out.Set("fleet.repairs", static_cast<double>(result.repairs), "count");
      out.Set("fleet.repair_queue_peak", static_cast<double>(queue_peak), "count");
      out.Set("fleet.makespan_ms", Ms(result.makespan), "ms");
      out.Set("fleet.requests_served", static_cast<double>(result.requests_served), "count");
    }
  });
  host.Emit(&out);
  if (recorder->enabled()) {
    out.Set("fleet.run_s", MedianSpan(*recorder, "Fleet::Run", first_span), "s");
    const double machines = out.metrics["fleet.machines"].value;
    out.Set("fleet.rss_mb_per_machine", machines > 0 ? Usage::Now().max_rss_mb / machines : 0.0,
            "MB");
    out.Set("sim.build_world_ms",
            MedianSpan(*recorder, "Scenario::BuildWorld", first_span) * 1e3, "ms");
    // A snapshot round trip of a chain's primary.
    std::unique_ptr<World> world = chain_scenarios[0].BuildWorld();
    ProbeSnapshot(world->replica(0)->hypervisor().machine(), recorder, &out);
  }
  return out;
}

RunOutcome CheckFleetThreadIdentity(const RunOptions& options) {
  RunOutcome out;
  FleetConfig config = FleetStormConfig(options.seed);
  const FleetResult serial = hbft::Fleet(config).Run();
  config.threads = 2;
  const FleetResult parallel = hbft::Fleet(config).Run();
  out.attempted = 2;
  out.Check(parallel.fingerprint == serial.fingerprint,
            "threads=2 fingerprint differs from threads=1");
  return out;
}

// ---------------------------------------------------------------------------
// serve-echo's world build: the scenario `hbft_cli serve` (single role, one
// backup) builds before it opens its listener.
// ---------------------------------------------------------------------------
RunOutcome ProbeServeBuild(const RunOptions& options, SpanRecorder* recorder) {
  RunOutcome out;
  const Scenario scenario = Scenario::Replicated(WorkloadSpec::NetEcho(1000000000u))
                                .Backups(1)
                                .Variant(hbft::ProtocolVariant::kRevised)
                                .Epoch(4096)
                                .Seed(options.seed)
                                .MaxTime(SimTime::Seconds(100000));
  std::vector<double> build_s;
  for (int i = 0; i < 5; ++i) {
    Timed t(recorder, "Scenario::BuildWorld");
    std::unique_ptr<World> world = scenario.BuildWorld();
    build_s.push_back(t.Stop());
  }
  out.attempted = 5;
  out.Set("sim.build_world_ms", Median(build_s) * 1e3, "ms");
  return out;
}

}  // namespace hbft_bench
