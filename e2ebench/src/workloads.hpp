// The three workloads. Each generates its inputs from the seed in set-up,
// runs whole rounds until the measured time is spent, checks every round's
// outputs, and fills the result with the end-to-end metrics. With
// options.trace the measured time is split: an untraced half (the cost per
// record tracing is compared against), then a traced half whose spans and
// the replays of the finer calls are dumped for summarize.py.
#pragma once

#include "common.hpp"

namespace e2e {

void run_ingest_raw_1lane(const Options& opt, RunResult& result);
void run_ingest_anon_paced(const Options& opt, RunResult& result);
void run_figure_report(const Options& opt, RunResult& result);

}  // namespace e2e
