// Umbrella header: the library's public API in one include.
//
//   #include "ufc.hpp"
//
// Layers (see DESIGN.md):
//   model/  — the UFC formulation: problems, utilities, emission policies
//   admm/   — the distributed 4-block ADM-G solver and strategies
//   traces/ — calibrated synthetic (or CSV-loaded) workload/price/carbon data
//   net/    — the message-passing protocol runtime
//   sim/    — week-scale simulation, sweeps, extensions and the paper's
//             results as generated markdown blocks (sim/reproduce.hpp)
//   ctrl/   — the online receding-horizon controller service
#pragma once

#include "admm/admg.hpp"
#include "admm/async.hpp"
#include "admm/centralized.hpp"
#include "admm/rightsizing.hpp"
#include "admm/strategy.hpp"
#include "ctrl/scheduler.hpp"
#include "ctrl/stream.hpp"
#include "model/battery.hpp"
#include "model/breakdown.hpp"
#include "model/emission.hpp"
#include "model/metrics.hpp"
#include "model/power.hpp"
#include "model/queueing.hpp"
#include "model/problem.hpp"
#include "model/utility.hpp"
#include "net/runtime.hpp"
#include "sim/batch.hpp"
#include "sim/forecast_study.hpp"
#include "sim/reproduce.hpp"
#include "sim/simulator.hpp"
#include "sim/storage.hpp"
#include "sim/sweep.hpp"
#include "traces/forecast.hpp"
#include "traces/geography.hpp"
#include "traces/scenario.hpp"
#include "traces/scenario_io.hpp"
