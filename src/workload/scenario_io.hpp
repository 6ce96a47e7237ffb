#pragma once
// Scenario serialization: a small line-oriented text format so scenarios can
// be exported, archived, and replayed across tools (or fed from external
// workload generators instead of the built-in ones).
//
// Format (all sections required, '#' starts a comment line):
//
//   adhoc-grid-scenario v1
//   machines <count>
//   machine <class:fast|slow> <battery> <compute_power> <transmit_power> <bw_bps>
//   tasks <count>
//   tau <cycles>
//   versions <secondary_time_factor> <secondary_data_factor>
//   etc <task> <machine> <seconds>            (one line per entry)
//   edge <parent> <child> <bits>              (one line per DAG edge)
//
// Numbers are written with enough precision to round-trip doubles exactly.
//
// The reader sizes the ETC table, the DAG and its etc-entry bookkeeping from
// the header counts before any entry line is read, so a hostile header
// could ask for an unbounded allocation. The counts are therefore capped
// (below) and refused with a PreconditionError before anything is
// allocated. Larger shapes (the 65536x512 and bigger scale tiers) are
// generated in memory, never loaded from this format.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "workload/scenario.hpp"

namespace ahg::workload {

/// Largest `tasks` count read_scenario accepts (2^20, the 1M-task tier).
inline constexpr std::size_t kMaxScenarioTasks = std::size_t{1} << 20;
/// Largest `machines` count read_scenario accepts.
inline constexpr std::size_t kMaxScenarioMachines = std::size_t{1} << 12;
/// Largest tasks x machines product read_scenario accepts: 2^24 ETC entries,
/// a 128 MiB table (the 8192x64 smoke shape is 2^19).
inline constexpr std::size_t kMaxScenarioEtcEntries = std::size_t{1} << 24;

/// Serialize a scenario (grid, DAG, ETC, data sizes, versions, tau).
void write_scenario(std::ostream& os, const Scenario& scenario);

/// Parse a scenario; throws PreconditionError with a line-numbered message
/// on malformed input, including header counts outside [1, cap] or a
/// tasks x machines product above kMaxScenarioEtcEntries. The result passes
/// Scenario::validate().
Scenario read_scenario(std::istream& is);

/// Convenience file wrappers (throw on I/O failure).
void save_scenario(const std::string& path, const Scenario& scenario);
Scenario load_scenario(const std::string& path);

}  // namespace ahg::workload
