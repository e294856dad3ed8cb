// Umbrella header — everything a downstream user needs for the common flow:
// make a dataset, pick (or define) a search space, run the multi-agent
// search, post-train the winners, and analyse the logs.
//
//   #include <ncnas/ncnas.hpp>
//
// The library layers, bottom to top:
//   obs       telemetry: metrics registry, trace recorder, stopwatches
//   tensor    dense math + deterministic RNG + thread pool
//   nn        layers, DAG graphs with autodiff, trainer, metrics, LSTM
//   data      synthetic CANDLE benchmarks + manually designed baselines
//   space     the NAS search-space formalism and the paper's five spaces
//   rl        the PPO-trained LSTM controller
//   exec      reward estimation: evaluator, cache, cost model, presets
//   nas       parameter server + the virtual-cluster search driver
//   analytics post-training, series/quantile analysis, reporting
#pragma once

#include "ncnas/analytics/arch_stats.hpp"
#include "ncnas/analytics/csv.hpp"
#include "ncnas/analytics/posttrain.hpp"
#include "ncnas/analytics/report.hpp"
#include "ncnas/analytics/series.hpp"
#include "ncnas/data/baselines.hpp"
#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/cost_model.hpp"
#include "ncnas/exec/evaluator.hpp"
#include "ncnas/exec/fault.hpp"
#include "ncnas/exec/presets.hpp"
#include "ncnas/exec/utilization.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/parameter_server.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/nn/graph.hpp"
#include "ncnas/obs/metrics.hpp"
#include "ncnas/obs/stopwatch.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/nn/layers.hpp"
#include "ncnas/nn/loss.hpp"
#include "ncnas/nn/lstm.hpp"
#include "ncnas/nn/metrics.hpp"
#include "ncnas/nn/optimizer.hpp"
#include "ncnas/nn/serialize.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/rl/controller.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/search_space.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"
#include "ncnas/tensor/thread_pool.hpp"
