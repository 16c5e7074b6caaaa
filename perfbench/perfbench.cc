// End-to-end benchmark of the TiFL reproduction.
//
// Runs one of four workloads as a closed loop — one federation at a time,
// in this process, each repetition building its scenario afresh and then
// running it — cycling through a few inputs seeded from --seed until a
// wall-clock window has passed.  Every repetition is checked (finite
// model, configured version count, accuracy floor, same model hash as the
// input's first repetition), and the run prints the end-to-end metrics as
// the mean over inputs of each input's median.  With --trace 1 it instead
// prints the per-layer metrics: engine phases, registry counters, direct
// timed probes of the data/core/fl/nn/tensor layers, and one extra
// repetition under obs::Tracer whose model hash must match the untraced
// ones.  Only the library's public API is used; nothing inside it is
// instrumented for this program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--tiny]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// preceded by a provenance line and a human-readable metric table.  The
// exit code is 0 only when every check passed.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.h"
#include "core/tiering.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/evaluation.h"
#include "fl/hier/topology.h"
#include "nn/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/churn_model.h"
#include "tensor/gemm.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace tifl;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Peak resident memory of this process image.  VmHWM, not getrusage's
// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
// launching process's footprint whenever that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// FNV-1a over raw value bits: any single-bit divergence changes it.
template <typename T>
std::uint64_t hash_bits(const std::vector<T>& values,
                        std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(T); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans (trace mode only): kept in memory, written at exit.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Spans {
 public:
  void enable() { enabled_ = true; }
  int open(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                    "\"start_s\": %.9f, \"dur_s\": %.9f}%s\n",
                    i, s.parent, s.name.c_str(), s.start - spans_[0].start,
                    s.end - s.start, i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(g_spans.open(name)) {}
  ~ScopedSpan() { g_spans.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// Times `fn` inside a benchmark-side span; returns wall seconds.
template <typename Fn>
double timed(const std::string& span, Fn&& fn) {
  ScopedSpan scope(span);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// ---------------------------------------------------------------------------
// Scenarios.

struct Setup {
  std::uint64_t seed = 0;
  std::unique_ptr<data::SyntheticData> data;
  std::unique_ptr<core::TiflSystem> system;
  nn::ModelFactory factory;
  fl::LocalTrainParams local;
  double synth_s = 0.0;
  double partition_s = 0.0;
  double system_s = 0.0;  // TiflSystem construction: profiling + tiering
};

struct RunOut {
  fl::RunResult result;
  std::vector<float> weights;  // final global model; empty for sync runs
  std::size_t retier_count = 0;
  double wall_s = 0.0;
};

struct Workload {
  std::string name;
  std::size_t inputs = 1;         // seeded federations per cycle
  std::size_t setup_repeats = 1;  // set-ups timed per repetition
  std::size_t versions = 0;
  double target = 0.0;  // accuracy whose first crossing is vtime_to_target_s
  double floor = 0.0;   // minimum acceptable final accuracy
  std::function<Setup(std::uint64_t seed)> setup;
  std::function<RunOut(Setup&)> run;
};

// Fig. 5 MNIST "combine" data (§5.1 at CI scale 0.25): 2-class shards with
// quantity skew, 5 CPU groups whose class content tracks the device
// cohort.  Shared by the sync CNN, async MLP and hierarchical workloads.
Setup fig5_setup(std::uint64_t seed, std::size_t num_clients, bool cnn,
                 const core::SystemConfig& base) {
  Setup s;
  s.seed = seed;
  const data::SyntheticSpec spec =
      data::mnist_like_spec(0.25, util::mix_seed(seed, 0x5EC));
  s.synth_s = timed("setup/data.synth", [&] {
    s.data = std::make_unique<data::SyntheticData>(data::make_synthetic(spec));
  });

  const std::vector<double> fractions{0.10, 0.15, 0.20, 0.25, 0.30};
  util::Rng rng(util::mix_seed(seed, 0xDA7A));
  sim::CostModel cost = sim::mnist_cost_model();
  std::vector<fl::Client> clients;
  s.partition_s = timed("setup/data.partition", [&] {
    data::ClassSkewOptions skew;
    skew.classes_per_client = 2;
    skew.group_class_affinity = 4.0;
    skew.client_weights.assign(num_clients, 1.0);
    skew.client_groups.assign(num_clients, 0);
    for (std::size_t c = 0; c < num_clients; ++c) {
      const std::size_t g = c * fractions.size() / num_clients;
      skew.client_weights[c] = fractions[g];
      skew.client_groups[c] = g;
    }
    const data::Partition partition = data::partition_classes_skewed(
        s.data->train, num_clients, skew, rng);
    // Keep simulated latencies at paper magnitude (60k images over 50
    // clients) although the synthetic set is scaled down.
    double mean_shard = 0.0;
    for (const auto& shard : partition) {
      mean_shard += static_cast<double>(shard.size());
    }
    mean_shard /= static_cast<double>(partition.size());
    cost.seconds_per_sample *= 1200.0 / mean_shard;
    const auto test_shards = data::matched_test_indices(
        s.data->train, partition, s.data->test, rng);
    const auto resources = sim::assign_equal_groups(
        num_clients, sim::mnist_cpu_groups(), /*comm_seconds=*/0.5,
        /*jitter_sigma=*/0.02, rng);
    clients = fl::make_clients(&s.data->train, partition, test_shards,
                               resources);
  });

  const data::ImageDims dims = spec.dims;
  const std::int64_t classes = spec.classes;
  if (cnn) {
    const nn::ImageGeometry geometry{dims.channels, dims.height, dims.width};
    s.factory = [geometry, classes](std::uint64_t model_seed) {
      return nn::mnist_cnn(geometry, classes, model_seed);
    };
  } else {
    s.factory = [inputs = dims.flat(), classes](std::uint64_t model_seed) {
      return nn::mlp(inputs, /*hidden=*/48, classes, model_seed);
    };
  }
  core::SystemConfig config = base;
  config.num_tiers = 5;
  config.profiler.tmax = 1000.0;  // keep all clients, as the paper's testbed
  config.clients_per_round = 5;
  config.engine.local.epochs = 1;
  config.engine.local.batch_size = 10;
  config.engine.local.optimizer.kind = nn::OptimizerConfig::Kind::kRmsProp;
  config.engine.local.optimizer.lr = 0.003;
  config.engine.lr_decay_per_round = 0.995;
  config.engine.seed = seed;
  config.profile_seed = util::mix_seed(seed, 0x9806);
  s.local = config.engine.local;
  s.system_s = timed("setup/core.profile_tier", [&] {
    s.system = std::make_unique<core::TiflSystem>(
        config, s.factory, &s.data->test, std::move(clients),
        sim::LatencyModel(cost));
  });
  return s;
}

// bench_scale's million-client federation: a virtualized ClientPool over
// lazy IID shards of a small shared data pool, a 36-16-4 MLP.
Setup scale_setup(std::uint64_t seed, std::size_t num_clients,
                  const core::SystemConfig& base) {
  Setup s;
  s.seed = seed;
  data::SyntheticSpec spec;
  spec.classes = 4;
  spec.dims = data::ImageDims{1, 6, 6};
  spec.train_samples = 4000;
  spec.test_samples = 512;
  spec.seed = util::mix_seed(seed, 0x5EC);
  s.synth_s = timed("setup/data.synth", [&] {
    s.data = std::make_unique<data::SyntheticData>(data::make_synthetic(spec));
  });

  util::Rng rng(util::mix_seed(seed, 0xDA7A));
  sim::CostModel cost{0.01, 1.0};
  fl::ClientPool::VirtualConfig pool;
  s.partition_s = timed("setup/data.partition", [&] {
    data::LazyShardOptions lazy;
    lazy.samples_per_client = 50;
    lazy.spread = 0.5;
    data::LazyShards shards(s.data->train.size(), num_clients, lazy,
                            util::mix_seed(seed, 0x1A2));
    // Lazy shards have mean size samples_per_client (symmetric spread).
    cost.seconds_per_sample *= 1000.0 / 50.0;
    pool.train = &s.data->train;
    pool.shards = std::move(shards);
    pool.profiles = sim::assign_equal_groups(
        num_clients, sim::cifar_cpu_groups(), /*comm_seconds=*/0.0,
        /*jitter_sigma=*/0.05, rng);
    pool.cache_capacity = 64;
  });

  s.factory = [inputs = spec.dims.flat(),
               classes = spec.classes](std::uint64_t model_seed) {
    return nn::mlp(inputs, /*hidden=*/16, classes, model_seed);
  };
  core::SystemConfig config = base;
  config.num_tiers = 5;
  config.profiler.tmax = 1000.0;  // keep everyone; churn supplies exits
  config.clients_per_round = 8;
  config.engine.local.epochs = 1;
  config.engine.local.batch_size = 10;
  config.engine.local.optimizer.kind = nn::OptimizerConfig::Kind::kSgd;
  config.engine.local.optimizer.lr = 0.05;
  config.engine.lr_decay_per_round = 1.0;
  config.engine.seed = seed;
  config.profile_seed = util::mix_seed(seed, 0x9806);
  s.local = config.engine.local;
  s.system_s = timed("setup/core.profile_tier", [&] {
    s.system = std::make_unique<core::TiflSystem>(
        config, s.factory, &s.data->test, fl::ClientPool(std::move(pool)),
        sim::LatencyModel(cost));
  });
  return s;
}

RunOut from_async(fl::AsyncRunResult&& run) {
  RunOut out;
  out.result = std::move(run.result);
  out.weights = std::move(run.final_weights);
  out.retier_count = run.reprofile_count;
  return out;
}

// Workload sizes.  Every run cycles through `inputs` seeded federations
// (sub-seeds of --seed) so one seed's luck — which tiers Alg. 2 happens
// to pick, how many outages strike — averages out; each federation takes
// a few seconds on a 4-core x86 box, so two cycles fill a 20 s window.
// `tiny` shrinks everything to a smoke run for the self-check, which
// checks the metric set, not accuracy.  Accuracy floors sit well below
// any seed's result seen and well above chance.
std::vector<Workload> workloads(bool tiny, const std::string& out_dir) {
  std::vector<Workload> all;

  {
    Workload w;
    w.name = "fig5-cnn-sync";
    w.inputs = tiny ? 1 : 3;
    w.setup_repeats = tiny ? 1 : 5;
    w.versions = tiny ? 2 : 4;
    w.target = 0.15;
    // No floor: four rounds of 2-class shards leave the CNN anywhere
    // from chance (0.1) to ~0.3 depending on which tiers Alg. 2 drew.
    w.floor = 0.0;
    const std::size_t rounds = w.versions;
    w.setup = [rounds](std::uint64_t seed) {
      core::SystemConfig config;
      config.engine.rounds = rounds;
      config.engine.eval_every = 2;
      return fig5_setup(seed, 50, /*cnn=*/true, config);
    };
    w.run = [](Setup& s) {
      auto policy = s.system->make_policy("adaptive");
      RunOut out;
      out.result = s.system->run(*policy);
      return out;
    };
    all.push_back(std::move(w));
  }

  {
    Workload w;
    w.name = "fig5-mlp-async";
    w.inputs = tiny ? 1 : 2;
    w.setup_repeats = tiny ? 1 : 5;
    w.versions = tiny ? 20 : 400;
    w.target = 0.75;
    w.floor = 0.5;  // 10 classes: chance is 0.1
    const std::size_t versions = w.versions;
    const std::string ckpt = out_dir + "/fig5-mlp-async.snap";
    w.setup = [](std::uint64_t seed) {
      return fig5_setup(seed, 50, /*cnn=*/false, core::SystemConfig{});
    };
    w.run = [versions, ckpt](Setup& s) {
      fl::AsyncConfig async;
      async.staleness = fl::StalenessFn::kPolynomial;
      async.total_updates = versions;
      async.eval_every = 1;
      async.checkpoint_every = 50.0;
      async.checkpoint_path = ckpt;
      auto policy = s.system->make_policy("adaptive");
      return from_async(s.system->run_async(async, {}, policy.get()));
    };
    all.push_back(std::move(w));
  }

  {
    Workload w;
    w.name = "scale-1m-churn";
    w.inputs = tiny ? 1 : 2;
    w.setup_repeats = 1;
    w.versions = tiny ? 256 : 16384;
    w.target = 0.9;
    w.floor = 0.7;  // 4 classes: chance is 0.25
    const std::size_t versions = w.versions;
    const std::size_t clients = tiny ? 20000 : 1000000;
    w.setup = [clients](std::uint64_t seed) {
      return scale_setup(seed, clients, core::SystemConfig{});
    };
    w.run = [versions](Setup& s) {
      fl::AsyncConfig async;
      async.staleness = fl::StalenessFn::kInverseFrequency;
      async.total_updates = versions;
      async.clients_per_tier_round = 8;
      async.eval_every = 64;
      async.churn.join_rate = 1.0;
      async.churn.leave_rate = 1.0;
      async.churn.slowdown_rate = 2.0;
      async.reprofile_every = 500.0;
      return from_async(s.system->run_async(async));
    };
    all.push_back(std::move(w));
  }

  {
    Workload w;
    w.name = "hier-4region";
    w.inputs = tiny ? 1 : 3;
    w.setup_repeats = tiny ? 1 : 5;
    w.versions = tiny ? 20 : 400;
    w.target = 0.5;
    w.floor = 0.3;
    const std::size_t versions = w.versions;
    w.setup = [](std::uint64_t seed) {
      return fig5_setup(seed, 200, /*cnn=*/false, core::SystemConfig{});
    };
    w.run = [versions](Setup& s) {
      fl::hier::HierConfig hier;
      hier.topology = fl::hier::Topology::regions(4);
      hier.tiers_per_region = 2;
      sim::ChurnConfig outage_churn;
      outage_churn.leave_rate = 0.002;
      hier.outages = sim::regional_outages(outage_churn, s.seed, 4,
                                           /*horizon=*/1000.0,
                                           /*duration=*/100.0);
      fl::AsyncConfig async;
      async.staleness = fl::StalenessFn::kInverseFrequency;
      async.total_updates = versions;
      async.eval_every = 1;
      async.reprofile_every = 100.0;
      fl::hier::HierRunResult run = s.system->run_hier(std::move(hier), async);
      RunOut out;
      out.result = std::move(run.result);
      out.weights = std::move(run.final_weights);
      out.retier_count = run.reprofile_count;
      return out;
    };
    all.push_back(std::move(w));
  }
  if (tiny) {
    for (Workload& w : all) w.floor = 0.0;
  }
  return all;
}

// ---------------------------------------------------------------------------
// Per-repetition record and correctness checks.

struct Rep {
  double wall_s = 0.0;
  std::map<std::string, double> phase_s;         // run phases, no profile
  std::map<std::string, std::uint64_t> phase_calls;
  double async_setup_s = 0.0;
  double async_finalize_s = 0.0;
  std::size_t versions = 0;
  double vtime_s = 0.0;
  double vtime_to_target_s = -1.0;
  double final_accuracy = 0.0;
  std::uint64_t hash = 0;
  std::vector<std::string> errors;

  double phase(const std::string& name) const {
    const auto it = phase_s.find(name);
    return it == phase_s.end() ? 0.0 : it->second;
  }
  // Wall time of the run that no engine phase accounts for.
  double other_s() const {
    return wall_s - phase("select") - phase("train") - phase("aggregate") -
           phase("eval");
  }
};

Rep check(const Workload& w, const RunOut& out) {
  Rep rep;
  rep.wall_s = out.wall_s;
  // TiflSystem prepends its construction-time profiling phase; that work
  // belongs to setup_s, not to the run.
  for (const obs::PhaseStat& stat : out.result.phases) {
    if (stat.name == "profile") continue;
    rep.phase_s[stat.name] += stat.seconds;
    rep.phase_calls[stat.name] += stat.calls;
  }
  obs::Registry& reg = obs::Registry::global();
  rep.async_setup_s =
      static_cast<double>(reg.counter("async.setup_ns").value()) * 1e-9;
  rep.async_finalize_s =
      static_cast<double>(reg.counter("async.finalize_ns").value()) * 1e-9;

  const fl::RunResult& r = out.result;
  rep.versions = r.rounds.size();
  rep.vtime_s = r.total_time();
  rep.vtime_to_target_s = r.time_to_accuracy(w.target);
  rep.final_accuracy = r.final_accuracy();

  if (rep.versions != w.versions) {
    rep.errors.push_back("completed " + std::to_string(rep.versions) +
                         " of " + std::to_string(w.versions) + " versions");
  }
  // The sync engine does not hand back its final model, so its run is
  // fingerprinted by the per-round trajectory instead: any divergence in
  // the weights moves the evaluated loss and accuracy.
  bool finite = true;
  std::vector<double> trajectory;
  for (const fl::RoundRecord& round : r.rounds) {
    finite = finite && std::isfinite(round.global_loss) &&
             std::isfinite(round.virtual_time);
    trajectory.push_back(round.global_loss);
    trajectory.push_back(round.global_accuracy);
    trajectory.push_back(round.virtual_time);
  }
  for (float v : out.weights) finite = finite && std::isfinite(v);
  if (!finite) rep.errors.push_back("non-finite model or loss");
  rep.hash = hash_bits(out.weights, hash_bits(trajectory));
  if (!(rep.final_accuracy >= w.floor)) {
    rep.errors.push_back("final accuracy " +
                         std::to_string(rep.final_accuracy) +
                         " below floor " + std::to_string(w.floor));
  }
  if (rep.other_s() < 0.0) {
    rep.errors.push_back("run phases exceed the run's wall time");
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Direct probes of single layers (trace mode).

template <typename Fn>
std::vector<double> repeat_ms(const std::string& span, std::size_t n, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < n; ++i) ms.push_back(timed(span, fn) * 1e3);
  return ms;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Metrics {
  std::vector<Metric> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, value, unit});
  }
};

std::vector<std::size_t> first_indices(std::size_t n, std::size_t limit) {
  std::vector<std::size_t> idx(std::min(n, limit));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

// nn and tensor probes on one model: whole-batch train/eval, each layer's
// forward and backward called directly, and the model's GEMM shapes.
void probe_model(const std::string& tag, const nn::ModelFactory& factory,
                 const data::Dataset& data, const nn::OptimizerConfig& opt,
                 Metrics& m) {
  nn::Sequential model = factory(7);
  auto optimizer = opt.make(opt.lr);
  util::Rng rng(11);
  const auto batch_idx = first_indices(data.size(), 10);
  const data::Dataset::Batch batch = data.gather(batch_idx);
  const auto eval_idx = first_indices(data.size(), 512);
  const data::Dataset::Batch chunk = data.gather(eval_idx);

  const auto train_ms = repeat_ms("probe/nn." + tag + ".train_batch", 21, [&] {
    model.train_batch(batch.x, batch.y, *optimizer, rng);
  });
  const auto eval_ms = repeat_ms("probe/nn." + tag + ".eval_chunk", 7, [&] {
    model.evaluate(chunk.x, chunk.y);
  });
  m.add("nn." + tag + ".train_batch_ms", median(train_ms), "ms");
  m.add("nn." + tag + ".eval_chunk_ms", median(eval_ms), "ms");

  // Layer by layer: forward through the stack keeping each input, then
  // backward in reverse from a unit gradient.  Layers keep the ReLU fusion
  // train_batch planned; a fused ReLU layer still times its own pass here.
  const std::size_t layers = model.layer_count();
  std::vector<std::vector<double>> fwd(layers), bwd(layers);
  double train_flops = 0.0;
  struct Shape {
    std::int64_t m, k, n;
  };
  std::vector<std::pair<std::string, Shape>> shapes;
  ScopedSpan layer_span("probe/nn." + tag + ".layers");
  for (int iter = 0; iter < 11; ++iter) {
    nn::PassContext ctx;
    ctx.training = true;
    ctx.rng = &rng;
    std::vector<tensor::Tensor> acts{batch.x};
    for (std::size_t i = 0; i < layers; ++i) {
      const double t0 = now_s();
      acts.push_back(model.layer(i).forward(acts.back(), ctx));
      fwd[i].push_back((now_s() - t0) * 1e3);
    }
    tensor::Tensor dy(acts.back().shape(), 1.0f);
    for (std::size_t i = layers; i-- > 0;) {
      const double t0 = now_s();
      dy = model.layer(i).backward(dy);
      bwd[i].push_back((now_s() - t0) * 1e3);
    }
    if (iter > 0) continue;
    // FLOPs from shapes: a weighted layer's forward is one GEMM of
    // 2 * |W| * (output positions); backward is two (dX and dW).
    for (std::size_t i = 0; i < layers; ++i) {
      nn::Layer& layer = model.layer(i);
      const auto params = layer.params();
      if (params.empty()) continue;
      const tensor::Tensor& w = *params.front();
      const tensor::Tensor& y = acts[i + 1];
      const std::int64_t positions = y.numel() / y.dim(1);
      train_flops += 3.0 * 2.0 * static_cast<double>(w.numel()) *
                     static_cast<double>(positions);
      const bool conv = layer.name() == "Conv2D";
      const Shape shape = conv ? Shape{w.dim(0), w.dim(1), positions}
                               : Shape{positions, w.dim(0), w.dim(1)};
      shapes.push_back({tag + "-" + std::to_string(i), shape});
    }
  }
  for (std::size_t i = 0; i < layers; ++i) {
    std::string name = model.layer(i).name();
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const std::string prefix =
        "nn." + tag + "." + std::to_string(i) + "-" + name;
    m.add(prefix + ".fwd_ms", median(fwd[i]), "ms");
    m.add(prefix + ".bwd_ms", median(bwd[i]), "ms");
  }
  m.add("nn." + tag + ".train_gflops",
        train_flops / (median(train_ms) * 1e-3) * 1e-9, "GFLOP/s");

  for (const auto& [name, shape] : shapes) {
    tensor::Tensor a({shape.m, shape.k}, 0.5f);
    tensor::Tensor b({shape.k, shape.n}, 0.25f);
    tensor::Tensor c({shape.m, shape.n});
    const double flops = 2.0 * static_cast<double>(shape.m * shape.k * shape.n);
    // Enough calls for ~1 ms per sample even on the smallest shapes.
    const std::size_t calls = static_cast<std::size_t>(
        std::clamp(2e6 / flops, 1.0, 4096.0));
    const auto ms = repeat_ms("probe/tensor.gemm." + name, 9, [&] {
      for (std::size_t i = 0; i < calls; ++i) tensor::gemm_nn(a, b, c);
    });
    m.add("tensor.gemm_gflops." + name,
          flops * static_cast<double>(calls) / (median(ms) * 1e-3) * 1e-9,
          "GFLOP/s");
  }
}

// fl-layer probes on the workload's own federation: one evaluation of the
// final model on the test set, and local updates of a fixed client sample.
void probe_fl(const Setup& s, const std::vector<float>& final_weights,
              Metrics& m) {
  nn::Sequential model = s.factory(7);
  const std::vector<float> weights =
      final_weights.empty() ? model.weights() : final_weights;
  const auto eval_ms = repeat_ms("probe/fl.evaluate_weights", 5, [&] {
    fl::evaluate_weights(model, weights, s.data->test, 512);
  });
  m.add("fl.eval_ms", median(eval_ms), "ms");

  fl::ClientPool& pool = s.system->client_pool();
  fl::LocalTrainParams params = s.local;
  params.lr = params.optimizer.lr;
  std::vector<double> update_ms;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t id = i * pool.size() / 8;
      fl::ClientPool::Lease client = pool.lease(id);
      update_ms.push_back(1e3 * timed("probe/fl.local_update", [&] {
        client->local_update(weights, model, params, util::Rng(id + 1));
      }));
    }
  }
  m.add("fl.client_update_ms.p50", quantile(update_ms, 0.5), "ms");
  m.add("fl.client_update_ms.p90", quantile(update_ms, 0.9), "ms");
}

// core-layer probe: one tiering pass over the workload's profiled
// latencies, the work every online re-tiering repeats.
void probe_core(const Setup& s, std::size_t retier_count, Metrics& m) {
  const core::ProfileResult& profile = s.system->profile();
  const std::size_t tiers = s.system->config().num_tiers;
  std::vector<double> ms;
  const double t0 = now_s();
  while (ms.size() < 3 || (ms.size() < 15 && now_s() - t0 < 0.5)) {
    ms.push_back(1e3 * timed("probe/core.build_tiers", [&] {
      core::build_tiers(profile, tiers);
    }));
  }
  m.add("core.retier_count", static_cast<double>(retier_count), "count");
  m.add("core.retier_ms", median(ms), "ms");
}

// Per-layer numbers the library's registry counted during the traced run.
void registry_metrics(double run_wall_s, Metrics& m) {
  obs::Registry& reg = obs::Registry::global();
  const auto count = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const auto histo = [&](const char* name) -> obs::Histo& {
    return reg.histogram(name);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  obs::Histo& barrier = histo("async.barrier_tasks");
  m.add("fl.barrier_tasks.mean", barrier.count() ? barrier.mean() : 0.0,
        "tasks");
  m.add("fl.staleness.p50", histo("async.staleness").percentile(0.5),
        "versions");
  m.add("fl.staleness.p99", histo("async.staleness").percentile(0.99),
        "versions");
  m.add("fl.park_retries", count("async.park_retries"), "count");

  const double hits = count("pool.lease_hits");
  const double misses = count("pool.lease_misses");
  m.add("pool.hit_ratio", ratio(hits, hits + misses), "ratio");
  m.add("pool.materializations", misses, "count");
  m.add("pool.evictions", count("pool.evictions"), "count");
  m.add("pool.peak_live", reg.gauge("pool.peak_live_clients").value(),
        "clients");

  const double writes = count("checkpoint.writes");
  const double write_s = count("checkpoint.write_ns") * 1e-9;
  m.add("ckpt.writes", writes, "count");
  m.add("ckpt.kib_per_write", ratio(count("checkpoint.bytes") / 1024.0, writes),
        "KiB");
  m.add("ckpt.ms_per_write", ratio(write_s * 1e3, writes), "ms");
  m.add("ckpt.share", ratio(write_s, run_wall_s), "ratio");

  obs::Histo& event_batch = histo("hier.event_batch");
  m.add("hier.events", count("hier.events"), "count");
  m.add("hier.uplinks", count("hier.uplinks"), "count");
  m.add("hier.downlinks", count("hier.downlinks"), "count");
  m.add("hier.root_link_kib", count("hier.root_link_bytes") / 1024.0, "KiB");
  m.add("hier.link_delay.p50", histo("hier.link_delay").percentile(0.5), "s");
  m.add("hier.event_batch.max", event_batch.count() ? event_batch.max() : 0.0,
        "events");

  m.add("sim.events_popped", count("sim.events_popped"), "count");
  m.add("sim.events_scheduled", count("sim.events_scheduled"), "count");
  m.add("sim.pop_ns.p50", histo("sim.pop_ns").percentile(0.5), "ns");
  m.add("sim.pop_ns.p99", histo("sim.pop_ns").percentile(0.99), "ns");
  m.add("sim.schedule_ns.p50", histo("sim.schedule_ns").percentile(0.5), "ns");
  m.add("sim.schedule_ns.p99", histo("sim.schedule_ns").percentile(0.99),
        "ns");
  m.add("sim.queue_depth_max", reg.gauge("sim.queue_depth_max").value(),
        "events");

  m.add("tensor.gemm_blocked", count("gemm.blocked"), "count");
  m.add("tensor.gemm_small", count("gemm.small"), "count");
  m.add("tensor.gemm_stream", count("gemm.stream"), "count");
  m.add("tensor.workspace_mib",
        reg.gauge("tensor.workspace_bytes").value() / (1024.0 * 1024.0),
        "MiB");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--trace") {
      args.trace = std::stoi(value()) != 0;
    } else if (arg == "--out") {
      args.out_dir = value();
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// One seeded input of a run: its repetitions and every set-up timed.
struct Input {
  std::uint64_t seed = 0;
  std::vector<Rep> reps;
  std::vector<double> setup_s, synth_s, partition_s, system_s;
};

// Mean over the inputs of each input's median: medians filter machine
// noise, the mean averages what differs between seeded inputs.
template <typename Field>
double mean_of_medians(const std::vector<Input>& inputs, Field field) {
  double sum = 0.0;
  for (const Input& in : inputs) {
    std::vector<double> v;
    for (const Rep& rep : in.reps) v.push_back(field(rep));
    sum += median(std::move(v));
  }
  return sum / static_cast<double>(inputs.size());
}

double mean_of_medians(const std::vector<Input>& inputs,
                       std::vector<double> Input::*samples) {
  double sum = 0.0;
  for (const Input& in : inputs) sum += median(in.*samples);
  return sum / static_cast<double>(inputs.size());
}

int run(const Args& args) {
  std::vector<Workload> all = workloads(args.tiny, args.out_dir);
  const auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (found == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  if (args.trace) g_spans.enable();

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"compiler\": \"%s\", \"cpu\": \"%s\", \"nproc\": %ld, "
      "\"pool_threads\": %zu}}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      json_escape(__VERSION__).c_str(), json_escape(cpu_model()).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), util::global_pool().size());
  std::fflush(stdout);

  // Closed loop: one federation at a time, cycling through the seeded
  // inputs until the window has passed (at least two cycles, so every
  // input's figures are medians).
  std::vector<Input> inputs(w.inputs);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    inputs[k].seed = util::mix_seed(args.seed, k);
  }
  std::vector<std::string> errors;
  bool threw = false;
  std::size_t reps = 0;
  const std::size_t min_cycles = args.tiny ? 1 : 2;
  const double window_start = now_s();
  const double hard_stop = window_start + 3.0 * args.seconds + 60.0;
  for (std::size_t cycle = 0;
       !threw && (cycle < min_cycles || now_s() - window_start < args.seconds);
       ++cycle) {
    if (now_s() > hard_stop) {
      errors.push_back("repetitions overran the time limit");
      break;
    }
    for (Input& in : inputs) {
      ScopedSpan rep_span("rep");
      ++reps;
      try {
        Setup s;
        for (std::size_t r = 0; r < w.setup_repeats; ++r) {
          s.system.reset();  // release the previous scenario, system first
          s = w.setup(in.seed);
          in.synth_s.push_back(s.synth_s);
          in.partition_s.push_back(s.partition_s);
          in.system_s.push_back(s.system_s);
          in.setup_s.push_back(s.synth_s + s.partition_s + s.system_s);
        }
        obs::Registry::global().reset();
        RunOut out;
        const double wall_s = timed("run", [&] { out = w.run(s); });
        out.wall_s = wall_s;
        Rep rep = check(w, out);
        if (!in.reps.empty() && rep.hash != in.reps.front().hash) {
          rep.errors.push_back("model hash differs between repetitions");
        }
        in.reps.push_back(std::move(rep));
      } catch (const std::exception& e) {
        errors.push_back(std::string("run threw: ") + e.what());
        threw = true;
        break;
      }
    }
  }

  // An operation is one global version: every version of a repetition
  // that failed a check (or threw) counts as failed.
  std::size_t failed = threw ? w.versions : 0;
  bool complete = true;
  for (const Input& in : inputs) {
    complete = complete && !in.reps.empty();
    for (const Rep& rep : in.reps) {
      for (const std::string& e : rep.errors) errors.push_back(e);
      failed += rep.errors.empty() ? 0 : w.versions;
    }
  }
  const std::size_t attempted = std::max<std::size_t>(1, reps) * w.versions;

  Metrics m;          // the metrics of this mode, as declared
  Metrics outcomes;   // simulation outcomes: printed, not bounded
  if (!complete) {
    errors.push_back("an input has no completed repetition");
  } else if (!args.trace) {
    const double wall = mean_of_medians(inputs, [](const Rep& r) {
      return r.wall_s;
    });
    m.add("wall_s", wall, "s");
    m.add("setup_s", mean_of_medians(inputs, &Input::setup_s), "s");
    m.add("versions_per_s", static_cast<double>(w.versions) / wall, "1/s");
    m.add("peak_rss_mib", peak_rss_mib(), "MiB");

    // Deterministic per seed: a repetition's first run stands for all.
    double vtime = 0.0, to_target = 0.0, accuracy = 0.0;
    bool reached = true;
    for (const Input& in : inputs) {
      const Rep& first = in.reps.front();
      vtime += first.vtime_s;
      to_target += first.vtime_to_target_s;
      accuracy += first.final_accuracy;
      reached = reached && first.vtime_to_target_s >= 0.0;
    }
    const double n = static_cast<double>(inputs.size());
    outcomes.add("vtime_s", vtime / n, "sim_s");
    if (reached) {
      outcomes.add("vtime_to_target_s", to_target / n, "sim_s");
    }
    outcomes.add("final_accuracy", accuracy / n, "ratio");
  } else {
    m.add("data.synth_s", mean_of_medians(inputs, &Input::synth_s), "s");
    m.add("data.partition_s", mean_of_medians(inputs, &Input::partition_s),
          "s");
    m.add("core.profile_tier_s", mean_of_medians(inputs, &Input::system_s),
          "s");
    for (const char* phase : {"select", "train", "aggregate", "eval"}) {
      m.add(std::string("fl.") + phase + "_s",
            mean_of_medians(inputs,
                            [&](const Rep& r) { return r.phase(phase); }),
            "s");
    }
    m.add("fl.other_s",
          mean_of_medians(inputs, [](const Rep& r) { return r.other_s(); }),
          "s");
    const Rep& first = inputs.front().reps.front();
    for (const char* phase : {"train", "eval", "aggregate"}) {
      const auto it = first.phase_calls.find(phase);
      m.add(std::string("fl.") + phase + "_calls",
            it == first.phase_calls.end() ? 0.0
                                          : static_cast<double>(it->second),
            "count");
    }
    m.add("fl.async_setup_s",
          mean_of_medians(inputs, [](const Rep& r) { return r.async_setup_s; }),
          "s");
    m.add("fl.async_finalize_s",
          mean_of_medians(inputs,
                          [](const Rep& r) { return r.async_finalize_s; }),
          "s");
    m.add("sim.self_s", mean_of_medians(inputs, [](const Rep& r) {
            return r.wall_s - r.phase("train") - r.phase("eval") -
                   r.phase("aggregate") - r.async_setup_s -
                   r.async_finalize_s;
          }), "s");

    // The traced repetition, on the first input: obs::Tracer on, registry
    // snapshot after.  Tracing must not move the model.
    std::ofstream trace_out(args.out_dir + "/trace-" + w.name + ".jsonl");
    obs::Tracer tracer(&trace_out);
    Setup s;
    RunOut out;
    {
      ScopedSpan traced_span("traced-rep");
      obs::TracerScope scope(&tracer);
      s = w.setup(inputs.front().seed);
      obs::Registry::global().reset();
      const double wall_traced = timed("run", [&] { out = w.run(s); });
      out.wall_s = wall_traced;
      tracer.flush();
    }
    const Rep traced = check(w, out);
    for (const std::string& e : traced.errors) errors.push_back("traced: " + e);
    if (traced.hash != first.hash) {
      errors.push_back("traced run's model hash differs from untraced");
    }
    // Against the untraced runs of the same input.
    const double untraced = median([&] {
      std::vector<double> v;
      for (const Rep& r : inputs.front().reps) v.push_back(r.wall_s);
      return v;
    }());
    registry_metrics(untraced, m);
    m.add("obs.trace_overhead", out.wall_s / untraced - 1.0, "ratio");

    probe_core(s, out.retier_count, m);
    probe_fl(s, out.weights, m);
    const data::SyntheticData probe_data = data::make_synthetic(
        data::mnist_like_spec(0.25, util::mix_seed(args.seed, 0x5EC)));
    const data::ImageDims dims = probe_data.test.dims();
    const nn::ImageGeometry geometry{dims.channels, dims.height, dims.width};
    const std::int64_t classes = probe_data.test.num_classes();
    nn::OptimizerConfig opt;
    opt.kind = nn::OptimizerConfig::Kind::kRmsProp;
    opt.lr = 0.003;
    probe_model("cnn", [&](std::uint64_t seed) {
      return nn::mnist_cnn(geometry, classes, seed);
    }, probe_data.test, opt, m);
    probe_model("mlp", [&](std::uint64_t seed) {
      return nn::mlp(dims.flat(), 48, classes, seed);
    }, probe_data.test, opt, m);
  }

  std::string metrics_json;
  for (Metric& metric : m.items) {
    if (!std::isfinite(metric.value)) {
      errors.push_back("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + metric.name + "\": {\"value\": " +
                    number(metric.value) + ", \"unit\": \"" + metric.unit +
                    "\"}";
  }
  const bool correct = errors.empty();
  if (!correct && failed == 0) failed = attempted;
  if (!args.trace) {
    outcomes.add("failed_share",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "ratio");
  }
  for (const Metrics* table : {&m, &outcomes}) {
    for (const Metric& metric : table->items) {
      std::printf("  %-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const Input& in : inputs) {
    std::printf("  input %016llx: walls", static_cast<unsigned long long>(in.seed));
    for (const Rep& rep : in.reps) std::printf(" %.3f", rep.wall_s);
    if (!in.reps.empty()) {
      std::printf("  vtime %.1f  accuracy %.4f", in.reps.front().vtime_s,
                  in.reps.front().final_accuracy);
    }
    std::printf("\n");
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", w.name.c_str(), e.c_str());
  }
  if (args.trace) g_spans.write(args.out_dir + "/spans-" + w.name + ".json");

  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  tifl::util::set_log_level(tifl::util::LogLevel::kWarn);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
