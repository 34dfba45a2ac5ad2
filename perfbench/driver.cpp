// Closed-loop benchmark driver for the repository benchmark (BENCHMARK.json).
//
// One process runs one workload: it builds the input graph from --seed, sets
// the distributed graph and facade up several times (timed; the median is
// setup_s), computes the serial oracle once per source (untimed), then calls
// the facade's public run() from a single client in a closed loop for
// --seconds, checking every result against its oracle and every
// deterministic counter against the first call on the same sources.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 spends half the
// budget untraced and half traced -- spans around every public call into the
// graph/core/sim/baseline layers, kept in memory and written as Chrome
// trace-event JSON -- and reports the per-layer metrics measured from
// outside plus the tracing overhead.  Library sources are not instrumented.
//
// Prints one JSON document as the last line of stdout; perfbench/run.py
// turns it into the result line.  Exit status is nonzero on any failure.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "core/batch_sssp.hpp"
#include "core/bfs.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/partition_stats.hpp"
#include "graph/rmat.hpp"
#include "sim/cluster.hpp"
#include "sim/perf_model.hpp"
#include "util/hash.hpp"

namespace {

using namespace dsbfs;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Every workload runs on 2 nodes x 1 rank x 2 GPUs: four simulated GPUs
// (one per core of a 4-core host) that still exercise inter-node exchange,
// NVLink-local traffic and node structure.
constexpr const char* kCluster = "2x1x2";
constexpr int kSetupRepeats = 5;
constexpr int kBatchWidth = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool tiny = false;         // smoke-test input sizes
  bool corrupt_one = false;  // feed one corrupted result copy to the oracle
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(key));
      return argv[++i];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = std::stoull(value());
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = value() != "0";
    else if (key == "--trace-out") a.trace_out = value();
    else if (key == "--tiny") a.tiny = true;
    else if (key == "--corrupt-one") a.corrupt_one = true;
    else throw std::invalid_argument("unknown argument " + std::string(key));
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder.  Spans nest by scope; each carries the id of the
/// call it belongs to (-1 outside the closed loop).  Disabled, a scope costs
/// one branch.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t call_id) : t_(t) {
      if (!t_.enabled_) return;
      index_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back({name, t_.now_us(), 0, t_.open_, call_id});
      t_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = t_.spans_[static_cast<std::size_t>(index_)];
      s.end_us = t_.now_us();
      t_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" complete events), which Perfetto opens.
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string_view layer = std::string_view(s.name).substr(0, s.name.find('.'));
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,", s.start_us,
                    s.end_us - s.start_us);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << layer << "\",\"ph\":\"X\"," << buf << "\"pid\":1,\"tid\":1,"
          << "\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"call\":" << s.call_id << "}}";
    }
    out << "\n]}\n";
    if (!out.flush()) throw std::runtime_error("failed writing trace file " + path);
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    std::int64_t call_id = -1;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---- workloads --------------------------------------------------------------

enum class Kind { kBfs, kBatchSssp };

struct Workload {
  Kind kind = Kind::kBfs;
  graph::EdgeList edges;
  int calls = 1;             // distinct calls the closed loop cycles through
  int sources_per_call = 1;
};

/// The input graph and call shape of a workload; the seed drives the
/// generator here and the source sampling in sample_calls().
Workload make_workload(const Args& a) {
  Workload w;
  if (a.workload == "bfs-rmat") {
    // The paper's headline: Graph500 RMAT, direction-optimized BFS.
    graph::RmatParams p;
    p.scale = a.tiny ? 10 : 18;
    p.seed = a.seed;
    w.edges = graph::rmat_graph500(p);
    w.calls = a.tiny ? 4 : 64;  // Graph500's 64 search keys
  } else if (a.workload == "bfs-longtail") {
    // Section VI-D: hundreds of iterations with tiny frontiers.
    graph::WebGraphLikeParams p;
    p.chain_length = a.tiny ? 16 : 320;
    p.community_size = a.tiny ? 64 : 512;
    p.seed = a.seed;
    w.edges = graph::webgraph_like(p);
    w.calls = a.tiny ? 4 : 16;
  } else if (a.workload == "sssp-batch") {
    // 64 delta-stepping sources in one call: lane-valued min-combined
    // exchange with uniquify and value reductions.
    graph::RmatParams p;
    p.scale = a.tiny ? 8 : 14;
    p.seed = a.seed;
    w.kind = Kind::kBatchSssp;
    w.edges = graph::rmat_graph500(p);
    w.calls = 1;
    w.sources_per_call = kBatchWidth;
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  return w;
}

/// Graph500-style sampling from a seed-dependent stream: call i takes the
/// sources k = base + i * sources_per_call + j.
std::vector<std::vector<VertexId>> sample_calls(const Workload& w,
                                                const graph::DistributedGraph& g,
                                                std::uint64_t seed) {
  const std::uint64_t base = util::splitmix64(seed ^ 0x5eedULL);
  std::vector<std::vector<VertexId>> calls(static_cast<std::size_t>(w.calls));
  std::uint64_t k = base;
  for (auto& c : calls) {
    for (int j = 0; j < w.sources_per_call; ++j) {
      c.push_back(core::sample_traversal_source(g, k++));
    }
  }
  return calls;
}

struct Deployment {
  std::unique_ptr<graph::DistributedGraph> graph;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::DistributedBfs> bfs;
  std::unique_ptr<core::DistributedBatchSssp> sssp;
};

struct SetupTimes {
  double threshold_ms = 0;
  double build_ms = 0;
  double facade_ms = 0;
  double total_s() const { return (threshold_ms + build_ms + facade_ms) / 1e3; }
};

/// graph::suggest_threshold (with its sweeper) + graph::build_distributed +
/// cluster and facade construction: what a user pays before the first call.
Deployment set_up(const Workload& w, Tracer& tr, SetupTimes& t) {
  const sim::ClusterSpec spec = sim::ClusterSpec::parse(kCluster);
  Deployment d;
  const auto t0 = Clock::now();
  std::uint32_t threshold = 0;
  {
    Tracer::Scope s(tr, "graph.suggest_threshold", -1);
    const graph::PartitionStatsSweeper sweeper(w.edges);
    threshold = graph::suggest_threshold(sweeper, spec.total_gpus());
  }
  const auto t1 = Clock::now();
  {
    Tracer::Scope s(tr, "graph.build_distributed", -1);
    d.graph = std::make_unique<graph::DistributedGraph>(
        graph::build_distributed(w.edges, spec, threshold));
  }
  const auto t2 = Clock::now();
  if (w.kind == Kind::kBfs) {
    Tracer::Scope s(tr, "core.DistributedBfs::construct", -1);
    d.cluster = std::make_unique<sim::Cluster>(spec);
    d.bfs = std::make_unique<core::DistributedBfs>(*d.graph, *d.cluster);
  } else {
    Tracer::Scope s(tr, "core.DistributedBatchSssp::construct", -1);
    d.cluster = std::make_unique<sim::Cluster>(spec);
    d.sssp = std::make_unique<core::DistributedBatchSssp>(*d.graph, *d.cluster);
  }
  const auto t3 = Clock::now();
  t.threshold_ms = ms_between(t0, t1);
  t.build_ms = ms_between(t1, t2);
  t.facade_ms = ms_between(t2, t3);
  return d;
}

// ---- oracles ----------------------------------------------------------------

struct Plan {
  std::vector<VertexId> sources;
  std::vector<std::vector<Depth>> bfs_ref;           // per source
  std::vector<std::vector<std::uint64_t>> sssp_ref;  // per lane
  double serial_ms = 0;  // baseline time for all of this call's sources
};

/// Serial oracle per source, computed once and timed: it doubles as the
/// plain single-threaded baseline.
std::vector<Plan> make_plans(const Workload& w, const Deployment& d,
                             std::uint64_t seed, Tracer& tr) {
  const graph::HostCsr csr = graph::build_host_csr(w.edges);
  std::vector<Plan> plans;
  for (auto& sources : sample_calls(w, *d.graph, seed)) {
    Plan p;
    p.sources = std::move(sources);
    for (const VertexId s : p.sources) {
      const auto t0 = Clock::now();
      if (w.kind == Kind::kBfs) {
        Tracer::Scope sp(tr, "baseline.serial_bfs", -1);
        p.bfs_ref.push_back(baseline::serial_bfs(csr, s));
      } else {
        Tracer::Scope sp(tr, "baseline.serial_delta_sssp", -1);
        const auto& o = d.sssp->options();
        p.sssp_ref.push_back(baseline::serial_delta_sssp(csr, s, o.delta, o.max_weight));
      }
      p.serial_ms += ms_between(t0, Clock::now());
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

// ---- one call ---------------------------------------------------------------

/// Counters of one call that must repeat exactly for the same sources.
struct Counts {
  std::uint64_t iterations = 0;
  std::uint64_t reduce_iterations = 0;  // S'
  std::uint64_t edges = 0;              // all visit/relax kernels, all GPUs
  std::uint64_t remote_bytes = 0;       // cross-rank exchange payload
  std::uint64_t local_bytes = 0;        // same-rank (NVLink) exchange payload
  std::uint64_t reduce_bytes = 0;       // delegate mask / value reductions
  std::uint64_t uniquify_in_bytes = 0;  // bytes entering per-bin coalescing
  std::uint64_t uniquify_out_bytes = 0; // what those bins put on the wire
  std::uint64_t kernels = 0;            // launched dd/dn/nd kernels
  std::uint64_t backward_kernels = 0;
  std::uint64_t bins_encoded = 0;
  std::uint64_t bins_total = 0;
  double modeled_ms = 0;

  bool operator==(const Counts&) const = default;

  std::string str() const {
    char buf[400];
    std::snprintf(buf, sizeof buf,
                  "iters=%llu reduce_iters=%llu edges=%llu remote=%llu "
                  "local=%llu reduce=%llu uniq_in=%llu uniq_out=%llu "
                  "kernels=%llu backward=%llu bins_enc=%llu bins=%llu "
                  "modeled_ms=%.17g",
                  static_cast<unsigned long long>(iterations),
                  static_cast<unsigned long long>(reduce_iterations),
                  static_cast<unsigned long long>(edges),
                  static_cast<unsigned long long>(remote_bytes),
                  static_cast<unsigned long long>(local_bytes),
                  static_cast<unsigned long long>(reduce_bytes),
                  static_cast<unsigned long long>(uniquify_in_bytes),
                  static_cast<unsigned long long>(uniquify_out_bytes),
                  static_cast<unsigned long long>(kernels),
                  static_cast<unsigned long long>(backward_kernels),
                  static_cast<unsigned long long>(bins_encoded),
                  static_cast<unsigned long long>(bins_total), modeled_ms);
    return buf;
  }
};

Counts count_run(const sim::RunCounters& rc, std::uint64_t reduce_bytes,
                 double modeled_ms) {
  Counts c;
  c.iterations = rc.iterations.size();
  c.reduce_bytes = reduce_bytes;
  c.modeled_ms = modeled_ms;
  for (const auto& it : rc.iterations) {
    bool reduced = false;
    for (const auto& g : it.gpu) {
      reduced |= g.delegate_update;
      c.edges += g.dd.edges + g.dn.edges + g.nd.edges + g.nn.edges;
      c.remote_bytes += g.send_bytes_remote;
      c.local_bytes += g.local_all2all_bytes;
      if (g.uniquify_bytes > 0) {
        c.uniquify_in_bytes += g.uniquify_bytes;
        c.uniquify_out_bytes += g.send_bytes_remote + g.local_all2all_bytes;
      }
      for (const auto* k : {&g.dd, &g.dn, &g.nd}) {
        if (!k->launched) continue;
        ++c.kernels;
        c.backward_kernels += k->backward ? 1 : 0;
      }
      c.bins_encoded += g.bins_compressed;
      c.bins_total += g.bins_compressed + g.bins_uncompressed;
    }
    c.reduce_iterations += reduced ? 1 : 0;
  }
  return c;
}

struct Sample {
  std::size_t plan = 0;
  double wall_ms = 0;
  double replay_ms = 0;  // traced calls only
  Counts counts;
  sim::ModeledBreakdown modeled;
};

struct Outcome {
  bool ok = false;
  std::string error;
  Sample sample;
};

std::string check_bfs(const Plan& p, const std::vector<Depth>& dist) {
  const core::ValidationReport r =
      core::validate_against_reference(dist, p.bfs_ref.front());
  return r.ok ? "" : "bfs distances differ from serial_bfs: " + r.error;
}

std::string check_sssp(const Plan& p, const std::vector<std::vector<std::uint64_t>>& dist) {
  if (dist.size() != p.sssp_ref.size()) return "batch returned wrong lane count";
  for (std::size_t lane = 0; lane < dist.size(); ++lane) {
    if (dist[lane] != p.sssp_ref[lane]) {
      return "lane " + std::to_string(lane) + " differs from serial_delta_sssp";
    }
  }
  return "";
}

/// Calls the facade once on plan `pi`, timed from outside, then checks the
/// result against the oracle.  A traced call also re-runs the perf-model
/// replay on the returned counters, which must reproduce the facade's own.
/// `corrupt` additionally checks a deliberately damaged copy of the result;
/// its failure is returned instead of the real result's verdict.
Outcome call_once(Deployment& d, const std::vector<Plan>& plans, std::size_t pi,
                  std::int64_t call_id, Tracer& tr, bool traced, bool corrupt) {
  const Plan& plan = plans[pi];
  Outcome o;
  o.sample.plan = pi;
  Tracer::Scope call(tr, "bench.call", call_id);
  const sim::RunCounters* counters = nullptr;
  sim::PerfModel model;
  std::string verdict;
  core::BfsResult bfs;
  core::BatchSsspResult sssp;
  if (d.bfs) {
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tr, "core.DistributedBfs::run", call_id);
      bfs = d.bfs->run(plan.sources.front());
    }
    o.sample.wall_ms = ms_between(t0, Clock::now());
    o.sample.counts = count_run(bfs.metrics.counters, bfs.metrics.mask_reduce_bytes,
                                bfs.metrics.modeled_ms);
    o.sample.modeled = bfs.metrics.modeled;
    counters = &bfs.metrics.counters;
    model = sim::PerfModel{sim::DeviceModel{d.bfs->options().device_model},
                           sim::NetModel{d.bfs->options().net_model}};
    Tracer::Scope s(tr, "bench.oracle_check", call_id);
    verdict = check_bfs(plan, bfs.distances);
    if (corrupt) {
      auto copy = bfs.distances;
      copy[plan.sources.front()] = 1;  // the source must be at depth 0
      verdict = check_bfs(plan, copy);
    }
  } else {
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tr, "core.DistributedBatchSssp::run", call_id);
      sssp = d.sssp->run(plan.sources);
    }
    o.sample.wall_ms = ms_between(t0, Clock::now());
    o.sample.counts = count_run(sssp.counters, sssp.reduce_bytes, sssp.modeled_ms);
    o.sample.modeled = sssp.modeled;
    counters = &sssp.counters;
    model = sim::PerfModel{sim::DeviceModel{d.sssp->options().device_model},
                           sim::NetModel{d.sssp->options().net_model}};
    Tracer::Scope s(tr, "bench.oracle_check", call_id);
    verdict = check_sssp(plan, sssp.distances);
    if (corrupt) {
      auto copy = sssp.distances;
      copy.back()[plan.sources.back()] += 1;  // a source is at distance 0
      verdict = check_sssp(plan, copy);
    }
  }
  if (traced) {
    const auto t0 = Clock::now();
    sim::ModeledBreakdown replayed;
    {
      Tracer::Scope s(tr, "sim.PerfModel::replay", call_id);
      replayed = model.replay(*counters);
    }
    o.sample.replay_ms = ms_between(t0, Clock::now());
    if (verdict.empty() && replayed.elapsed_ms != o.sample.modeled.elapsed_ms) {
      verdict = "perf-model replay does not reproduce the facade's modeled time";
    }
  }
  o.ok = verdict.empty();
  o.error = std::move(verdict);
  return o;
}

// ---- closed loop ------------------------------------------------------------

struct Loop {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::optional<Counts>> first_counts;  // per plan

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }

  /// One attempted call: oracle verdict, exception, and the repeat check of
  /// its deterministic counts against the first call on the same plan.
  void attempt(Deployment& d, const std::vector<Plan>& plans, std::size_t pi,
               Tracer& tr, bool traced, bool corrupt, bool keep) {
    const std::int64_t id = static_cast<std::int64_t>(attempted++);
    try {
      Outcome o = call_once(d, plans, pi, id, tr, traced, corrupt);
      auto& first = first_counts[pi];
      if (!o.ok) {
        fail("call " + std::to_string(id) + ": " + o.error);
      } else if (first && !(*first == o.sample.counts)) {
        fail("call " + std::to_string(id) + ": counts changed on a repeat of plan " +
             std::to_string(pi) + ": " + first->str() + " vs " + o.sample.counts.str());
      } else {
        if (!first) first = o.sample.counts;
        if (keep) samples.push_back(std::move(o.sample));
      }
    } catch (const std::exception& e) {
      fail("call " + std::to_string(id) + " threw: " + e.what());
    }
  }

  /// Closed loop for `seconds`: the next call starts when the previous one
  /// (and its check) has returned; at least one call always runs.
  void run_for(double seconds, Deployment& d, const std::vector<Plan>& plans,
               Tracer& tr, bool traced, std::size_t& next) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
      attempt(d, plans, next++ % plans.size(), tr, traced, false, true);
    } while (Clock::now() < deadline);
  }
};

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_of(const std::vector<Sample>& s, F f) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const auto& x : s) v.push_back(f(x));
  return median(std::move(v));
}

/// The highest percentile of call wall time with at least ten samples
/// beyond it: the 11th-largest sample (the maximum below 11 samples).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t beyond = 0;
};

Tail tail_of(const std::vector<Sample>& s) {
  std::vector<double> v;
  for (const auto& x : s) v.push_back(x.wall_ms);
  std::sort(v.begin(), v.end());
  Tail t;
  if (v.empty()) return t;
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// ---- output -----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + json_escape(v) + "\"");
  }
  void metric(const std::string& name, double v, const std::string& unit) {
    JsonObject m;
    m.num("value", v);
    m.str("unit", unit);
    raw(name, m.text());
  }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + json_escape(key) + "\":" + json;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(v[i]) + "\"";
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double harmonic_mean(const std::vector<double>& v) {
  double inv = 0;
  for (const double x : v) inv += 1.0 / x;
  return v.empty() || inv == 0 ? 0 : static_cast<double>(v.size()) / inv;
}

int run(const Args& args) {
  Tracer tr;
  tr.set_enabled(args.trace);

  const Workload w = make_workload(args);

  // Set up several times; keep the last deployment.  The median over the
  // repeats is setup_s.
  std::vector<SetupTimes> setups;
  Deployment d;
  for (int r = 0; r < kSetupRepeats; ++r) {
    d = Deployment{};  // release the previous graph before building the next
    SetupTimes t;
    d = set_up(w, tr, t);
    setups.push_back(t);
  }
  const std::vector<Plan> plans = make_plans(w, d, args.seed, tr);
  const double teps_edges_per_source = static_cast<double>(d.graph->num_edges() / 2);

  Loop loop;
  loop.first_counts.resize(plans.size());
  // Untimed warm-up call (first-call allocations, page faults), checked.
  tr.set_enabled(false);
  loop.attempt(d, plans, 0, tr, false, false, false);
  if (args.corrupt_one) loop.attempt(d, plans, 0, tr, false, true, false);

  std::size_t next = 0;
  std::vector<Sample> untraced;
  if (args.trace) {
    loop.run_for(args.seconds / 2, d, plans, tr, false, next);
    untraced = std::move(loop.samples);
    loop.samples.clear();
    tr.set_enabled(true);
    loop.run_for(args.seconds / 2, d, plans, tr, true, next);
  } else {
    loop.run_for(args.seconds, d, plans, tr, false, next);
  }
  const std::vector<Sample>& s = loop.samples;

  // Deterministic per-plan modeled rate: one value per distinct call, so it
  // does not depend on how many calls fit in the time budget.
  std::vector<double> modeled_rates;
  for (const auto& c : loop.first_counts) {
    if (c && c->modeled_ms > 0) {
      modeled_rates.push_back(w.sources_per_call * teps_edges_per_source /
                              c->modeled_ms / 1e6);
    }
  }
  std::vector<double> measured_rates;
  for (const auto& x : s) {
    measured_rates.push_back(w.sources_per_call * teps_edges_per_source /
                             x.wall_ms / 1e6);
  }
  const double p50 = median_of(s, [](const Sample& x) { return x.wall_ms; });
  const Tail tail = tail_of(s);

  JsonObject metrics;
  if (!args.trace) {
    metrics.metric("run_ms_p50", p50, "ms");
    metrics.metric("run_ms_tail", tail.value, "ms");
    metrics.metric("gteps_measured", harmonic_mean(measured_rates), "GTEPS");
    metrics.metric("gteps_modeled", harmonic_mean(modeled_rates), "GTEPS");
    std::vector<double> setup_s;
    for (const auto& t : setups) setup_s.push_back(t.total_s());
    metrics.metric("setup_s", median(setup_s), "s");
    metrics.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double per_source = 1.0 / w.sources_per_call;
    auto med = [&](auto f) { return median_of(s, f); };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    std::vector<double> th, build;
    for (const auto& t : setups) {
      th.push_back(t.threshold_ms);
      build.push_back(t.build_ms);
    }
    metrics.metric("graph.threshold_ms", median(th), "ms");
    metrics.metric("graph.build_ms", median(build), "ms");
    metrics.metric("graph.subgraph_bytes",
                   static_cast<double>(d.graph->total_subgraph_bytes()), "B");
    metrics.metric("graph.delegates", d.graph->num_delegates(), "count");
    metrics.metric("core.edges_per_source",
                   med([&](const Sample& x) { return x.counts.edges * per_source; }),
                   "count");
    metrics.metric("core.backward_share", med([&](const Sample& x) {
                     return ratio(x.counts.backward_kernels, x.counts.kernels);
                   }), "ratio");
    metrics.metric("core.ns_per_edge", med([](const Sample& x) {
                     return x.counts.edges ? x.wall_ms * 1e6 / x.counts.edges : 0.0;
                   }), "ns");
    metrics.metric("engine.iterations",
                   med([](const Sample& x) { return double(x.counts.iterations); }),
                   "count");
    metrics.metric("engine.reduce_iterations", med([](const Sample& x) {
                     return double(x.counts.reduce_iterations);
                   }), "count");
    metrics.metric("engine.us_per_iteration", med([](const Sample& x) {
                     return x.counts.iterations ? x.wall_ms * 1e3 / x.counts.iterations : 0.0;
                   }), "us");
    metrics.metric("comm.exchange_remote_bytes",
                   med([&](const Sample& x) { return x.counts.remote_bytes * per_source; }),
                   "B");
    metrics.metric("comm.exchange_local_bytes",
                   med([&](const Sample& x) { return x.counts.local_bytes * per_source; }),
                   "B");
    metrics.metric("comm.reduce_bytes",
                   med([&](const Sample& x) { return x.counts.reduce_bytes * per_source; }),
                   "B");
    // Duplicates removed / records coalesced.  The counters expose the bytes
    // entering coalescing and the raw payload those bins shipped, so this is
    // 1 - out/in; exact while the payload is raw (no codec).
    metrics.metric("comm.uniquify_hit_ratio", med([](const Sample& x) {
                     const auto& c = x.counts;
                     return c.uniquify_in_bytes
                                ? 1.0 - static_cast<double>(c.uniquify_out_bytes) /
                                            static_cast<double>(c.uniquify_in_bytes)
                                : 0.0;
                   }), "ratio");
    metrics.metric("comm.bins_encoded_share", med([&](const Sample& x) {
                     return ratio(x.counts.bins_encoded, x.counts.bins_total);
                   }), "ratio");
    metrics.metric("sim.replay_ms", med([](const Sample& x) { return x.replay_ms; }), "ms");
    metrics.metric("sim.computation_ms",
                   med([](const Sample& x) { return x.modeled.computation_ms; }), "ms");
    metrics.metric("sim.local_comm_ms",
                   med([](const Sample& x) { return x.modeled.local_comm_ms; }), "ms");
    metrics.metric("sim.normal_exchange_ms",
                   med([](const Sample& x) { return x.modeled.normal_exchange_ms; }), "ms");
    metrics.metric("sim.delegate_reduce_ms",
                   med([](const Sample& x) { return x.modeled.delegate_reduce_ms; }), "ms");
    metrics.metric("sim.control_ms",
                   med([](const Sample& x) { return x.modeled.control_ms; }), "ms");
    metrics.metric("baseline.serial_ms",
                   med([&](const Sample& x) { return plans[x.plan].serial_ms; }), "ms");
    metrics.metric("baseline.speedup", med([&](const Sample& x) {
                     return plans[x.plan].serial_ms / x.wall_ms;
                   }), "x");
    metrics.metric("trace.overhead_ms",
                   p50 - median_of(untraced, [](const Sample& x) { return x.wall_ms; }),
                   "ms");
    if (!args.trace_out.empty()) tr.write_chrome(args.trace_out);
  }

  JsonObject notes;
  notes.num("samples", static_cast<double>(s.size()));
  notes.num("run_ms_tail_percentile", tail.percentile);
  notes.num("run_ms_tail_beyond", static_cast<double>(tail.beyond));
  if (args.trace) {
    notes.num("spans", static_cast<double>(tr.size()));
    notes.str("trace_file", args.trace_out);
  }
  std::vector<std::string> fingerprint;
  for (const auto& c : loop.first_counts) fingerprint.push_back(c ? c->str() : "");

  JsonObject doc;
  doc.str("workload", args.workload);
  doc.raw("seed", std::to_string(args.seed));
  doc.raw("trace", args.trace ? "1" : "0");
  doc.raw("attempted", std::to_string(loop.attempted));
  doc.raw("failed", std::to_string(loop.failed));
  doc.raw("errors", json_strings(loop.errors));
  doc.raw("metrics", metrics.text());
  doc.raw("notes", notes.text());
  doc.raw("fingerprint", json_strings(fingerprint));
  std::cout << doc.text() << std::endl;
  return loop.failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
