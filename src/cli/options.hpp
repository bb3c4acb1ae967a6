// Flag parsing for the hbft_cli subcommands.
//
// Flags are --key=value (or bare --key for booleans). Every flag a command
// reads is tracked; Finish() rejects anything left over, so typos fail loudly
// instead of silently running a default scenario. A few flags (--fail) are
// repeatable: each occurrence appends to an ordered list.
#ifndef HBFT_CLI_OPTIONS_HPP_
#define HBFT_CLI_OPTIONS_HPP_

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "guest/workloads.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"

namespace hbft {
namespace cli {

class FlagSet {
 public:
  // Returns false (with a message on stderr) on malformed arguments.
  bool Parse(int argc, char** argv, int first);

  bool Has(const std::string& key);
  std::string GetString(const std::string& key, const std::string& default_value);
  std::optional<uint64_t> GetU64(const std::string& key);
  std::optional<double> GetDouble(const std::string& key);
  // Every occurrence of a repeatable flag, in command-line order.
  std::vector<std::string> GetList(const std::string& key);

  // True when every provided flag was consumed; otherwise prints the
  // unrecognised ones to stderr.
  bool Finish();

 private:
  std::map<std::string, std::vector<std::string>> values_;
  std::set<std::string> consumed_;
};

// Name <-> enum maps shared by run/drill/bench.
std::optional<WorkloadKind> ParseWorkloadKind(const std::string& name);
const char* WorkloadKindName(WorkloadKind kind);
std::optional<ProtocolVariant> ParseVariant(const std::string& name);
const char* VariantName(ProtocolVariant variant);
std::optional<FailPhase> ParseFailPhase(const std::string& name);

// One enum name per line — the discoverability behind --list-workloads and
// --list-phases.
void PrintWorkloadNames(std::FILE* out);
void PrintFailPhaseNames(std::FILE* out);

// Parses one --fail=SPEC value: comma-separated key=value pairs.
//   --fail=time-ms=40                          kill the active replica at 40ms
//   --fail=phase=after-io-issue,epoch=2        kill at a protocol phase
//   --fail=time-ms=60,target=backup:1          kill the second standing backup
//   --fail=phase=after-send-tme,crash-io=performed
// Returns false after printing the offending part.
bool ParseFailSpec(const std::string& spec, FailurePlan* out, std::string* description);

// Scenario knobs shared by `run` and `drill`: workload selection plus
// replication, topology, device fault plans, and failure-schedule settings.
// Returns false after printing the offending flag.
struct ScenarioFlags {
  WorkloadSpec workload;
  int backups = 1;
  uint64_t epoch_length = 4096;
  ProtocolVariant variant = ProtocolVariant::kOriginal;
  uint64_t seed = 42;
  FailureSchedule failures;
  std::string failure_description = "none";
  bool has_failure = false;

  // Per-device transient-fault knobs (--disk-uncertain= etc.), applied to
  // the replicated run and its bare reference alike so the transparency
  // checks compare like with like.
  FaultPlan disk_faults;
  FaultPlan console_faults;
  FaultPlan nic_faults;

  // Interconnect knobs (--loss/--reorder/--dup/--link-queue/--rto-ms/
  // --loss-until-ms) and the protocol's transport generalisations
  // (--pipeline-depth, --ack-batch). Replicated runs only — the bare
  // reference has no replica channels.
  LinkFaults link_faults;
  uint32_t pipeline_depth = 0;
  uint32_t ack_batch = 1;

  // net-echo: packets injected into the run (0 = workload iterations).
  uint64_t packets = 0;

  // Builders carrying every parsed knob.
  Scenario Replicated() const;
  Scenario Bare() const;
};

bool ParseScenarioFlags(FlagSet& flags, ScenarioFlags* out);

}  // namespace cli
}  // namespace hbft

#endif  // HBFT_CLI_OPTIONS_HPP_
