#pragma once
// Chrome trace_event exporter (ahg::obs): renders a FlightRecorder's spans
// and frames as one `{"traceEvents":[...]}` JSON document loadable in
// chrome://tracing or Perfetto (legacy JSON mode).
//
// Mapping:
//  - every Span becomes a complete duration event (ph "X", ts/dur in
//    microseconds from recorder start) on the heuristic thread, with the
//    simulation clock and machine as args;
//  - every Frame becomes a set of counter events (ph "C") at its capture
//    time: an "objective" track with the weighted term breakdown, a
//    "progress" track (assigned / T100), a "pool" track (re-plans, maps,
//    pool and frontier sizes), a "battery" track with one series per machine
//    (available/capacity fraction), and — only when churn has occurred — a
//    "churn" track with the cumulative tallies;
//  - process / thread name metadata events label the tracks.
//
// With a TaskLedger attached, a second process (pid 2, "schedule") renders
// the task-major view in SIMULATION time (1 cycle == 1 trace microsecond):
// two thread rows per machine — "mN compute" carrying one ph-X slice per
// executed task and "mN net" carrying one slice per timed input transfer —
// plus flow events (ph "s"/"t"/"f", cat "dataflow") drawing the parent→child
// causal arrows from the producer's exec slice through the transfer slice to
// the consumer's exec slice across rows.
//
// With a RuntimeProfiler attached, a third process (pid 3, "runtime
// (workers)", wall-clock micros) renders what the thread pool actually did:
// a "regions" row (tid 0) with one slice per named parallel_for window
// (cache_build, matrix_cells, ...), one row per worker/helper
// slot carrying its run slices (named by the region that was open, args
// {region, stolen}) and coalesced "idle" intervals, and one ph-"i" instant
// ("worker_counters") per slot whose args carry the accumulated counters —
// tasks, steals, steal_attempts, parks, busy/idle seconds — which
// `run_report --workers` parses back for the utilization summary.

#include <iosfwd>
#include <string_view>

namespace ahg::obs {

class FlightRecorder;
class RuntimeProfiler;
class TaskLedger;

/// Write the complete trace document. `process_name` labels the process
/// track in the viewer (e.g. the CLI invocation or scenario name).
void write_chrome_trace(std::ostream& os, const FlightRecorder& recorder,
                        std::string_view process_name = "ahg");

/// Pointer overload combining recorder + ledger; either may be null (a
/// document with only the available tracks is written). Equivalent to the
/// reference overload when `ledger` is null.
void write_chrome_trace(std::ostream& os, const FlightRecorder* recorder,
                        const TaskLedger* ledger,
                        std::string_view process_name = "ahg");

/// All-sources overload: recorder + ledger + runtime profiler; any may be
/// null. The profiler contributes the pid-3 wall-clock worker process.
void write_chrome_trace(std::ostream& os, const FlightRecorder* recorder,
                        const TaskLedger* ledger,
                        const RuntimeProfiler* profiler,
                        std::string_view process_name = "ahg");

}  // namespace ahg::obs
