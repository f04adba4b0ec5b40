// Traced driver of the Otter benchmark.
//
// Calls the library entry points that otterc and otterd call, one span per
// public call, so the benchmark can say which layer moved an end-to-end
// number. Spans stay in memory and are written when the run ends.
//
// Usage:
//   otter_tracer interp SPEC.json OUT.json
//       Interpreter reference for every job: {"jobs":[{name,output,cpu_s}]}.
//   otter_tracer trace SPEC.json OUT.json SPANS.json
//       Per-layer metrics (OUT) and the span log with self times (SPANS).
//
// SPEC (written by run.py):
//   {"reps": R,
//    "jobs": [{"name", "file"|"script", "np", "machine", "seed",
//              "elem_ops", "probe"}],
//    "rtlib": {"n", "mm", "np", "reps"},            (optional)
//    "codegen": {"src_dir", "bin_dir", "work_dir"}, (optional)
//    "service": {"hot": [line], "cold": [line], "reps"}}  (optional)
// A job with "probe": true only feeds kernel.ns_per_elem. Outputs are not
// judged here: every distinct output is returned and run.py checks it
// against the interpreter reference.
#include <dlfcn.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verify.hpp"
#include "codegen/emit.hpp"
#include "driver/pipeline.hpp"
#include "rtlib/dmatrix.hpp"
#include "service/server.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "vm/bcgen.hpp"
#include "vm/vm.hpp"

namespace {

using namespace otter;
using Clock = std::chrono::steady_clock;

// ---- spans ------------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;
  int job = -1;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  int open(std::string name, int parent, int job) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.job = job;
    s.name = std::move(name);
    s.start = now();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = now();
    return s.end - s.start;
  }
  int new_job() { return next_job_++; }

  /// Span log with self time (duration minus the time covered by children;
  /// children of one parent never overlap, they run on one thread).
  [[nodiscard]] json::JValue dump() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    json::JArray out;
    std::map<std::string, double> self_by_name;
    for (const Span& s : spans_) {
      double self = (s.end - s.start) - child[static_cast<size_t>(s.id)];
      self_by_name[s.name] += self;
      out.push_back(json::obj({{"id", s.id},
                               {"parent", s.parent},
                               {"job", s.job},
                               {"name", s.name},
                               {"start_s", s.start},
                               {"end_s", s.end},
                               {"self_s", self}}));
    }
    json::JValue by_name{json::JObject{}};
    for (const auto& [k, v] : self_by_name) by_name.set(k, v);
    return json::obj({{"spans", std::move(out)}, {"self_s_by_name", by_name}});
  }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int next_job_ = 0;
};

/// Times one call as a child span of `parent`.
template <class F>
double timed(Tracer& tr, const char* name, int parent, int job, F&& fn) {
  int id = tr.open(name, parent, job);
  fn();
  return tr.close(id);
}

double wall_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "otter_tracer: " << msg << '\n';
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text << '\n';
  if (!out) die("cannot write " + path);
}

// ---- jobs -------------------------------------------------------------------

struct Job {
  std::string name;
  std::string source;
  std::string dir;  // M-file search directory ("" = none)
  int np = 1;
  std::string machine = "meiko_cs2";
  uint64_t seed = 1;
  double elem_ops = 0.0;  // element-ops per run, from the generator
  bool probe = false;
};

std::vector<Job> parse_jobs(const json::JValue& spec) {
  std::vector<Job> jobs;
  const json::JValue* arr = spec.get("jobs");
  if (arr == nullptr || !arr->is_array()) die("spec lacks \"jobs\"");
  for (const json::JValue& j : arr->as_array()) {
    Job job;
    job.name = j.get_string("name");
    std::string file = j.get_string("file");
    if (!file.empty()) {
      job.source = read_file(file);
      size_t slash = file.find_last_of('/');
      job.dir = slash == std::string::npos ? "." : file.substr(0, slash);
    } else {
      job.source = j.get_string("script");
    }
    job.np = static_cast<int>(j.get_number("np", 1));
    job.machine = j.get_string("machine", "meiko_cs2");
    job.seed = static_cast<uint64_t>(j.get_number("seed", 1));
    job.elem_ops = j.get_number("elem_ops", 0.0);
    job.probe = j.get_bool("probe", false);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

sema::MFileLoader loader_for(const Job& j) {
  return j.dir.empty() ? sema::MFileLoader{} : driver::dir_loader(j.dir);
}

/// The exact counts of one execution; they must repeat bit-for-bit.
struct Counts {
  uint64_t lir_instrs = 0, fused = 0, hoisted = 0, cse_removed = 0,
           guards_eliminated = 0, vm_instrs = 0, ic_hits = 0, ic_misses = 0,
           comm_ops = 0;
  bool operator==(const Counts&) const = default;
};

uint64_t count_instrs(const std::vector<lower::LInstrPtr>& body) {
  uint64_t n = 0;
  for (const lower::LInstrPtr& in : body) {
    ++n;
    n += count_instrs(in->body);
    for (const lower::LIfArm& arm : in->arms) n += count_instrs(arm.body);
  }
  return n;
}

uint64_t count_instrs(const lower::LProgram& p) {
  uint64_t n = count_instrs(p.script);
  for (const lower::LFunction& f : p.functions) n += count_instrs(f.body);
  return n;
}

/// One job through the pipeline, the way otterc runs it (-O2, VM tier).
struct JobRun {
  double wall = 0.0;
  double run_s = 0.0;
  std::map<std::string, double> phase;  // compile phases (traced only)
  Counts counts;
  mpi::RunResult times;
  std::string output;
};

driver::ExecOptions exec_options(const Job& j) {
  driver::ExecOptions eo;
  eo.rand_seed = j.seed;
  eo.backend = driver::ExecBackend::Vm;
  return eo;
}

/// Untraced: compile_script + run_parallel, exactly otterc's calls.
JobRun run_untraced(const Job& j) {
  JobRun r;
  auto t0 = Clock::now();
  auto compiled = driver::compile_script(j.source, loader_for(j),
                                         driver::CompileOptions{});
  if (!compiled->ok) die(j.name + ": compile failed\n" + compiled->diags.to_string());
  auto run = driver::run_parallel(compiled->lir, mpi::profile_by_name(j.machine),
                                  j.np, exec_options(j));
  r.wall = wall_since(t0);
  r.output = std::move(run.output);
  r.times = std::move(run.times);
  return r;
}

/// Traced: the passes compile_script runs, called one by one, each in its
/// own span, then bytecode generation and run_parallel.
JobRun run_traced(const Job& j, Tracer& tr,
                  lower::LProgram* lir_out = nullptr) {
  JobRun r;
  const int job = tr.new_job();
  auto t0 = Clock::now();
  const int root = tr.open("job:" + j.name, -1, job);
  const int comp = tr.open("driver.compile", root, job);

  SourceManager sm;
  DiagEngine diags(&sm);
  BudgetGate gate(CompileBudget{});
  Program prog;
  sema::InferResult inf;
  lower::LProgram lir;
  analysis::AbsintResult absint;
  lower::OptReport rep;
  auto fail_if_errors = [&] {
    if (diags.has_errors()) die(j.name + ": compile failed\n" + diags.to_string());
  };

  r.phase["frontend.parse"] = timed(tr, "frontend.parse", comp, job, [&] {
    ParsedFile f = parse_string(j.source, sm, diags, j.name, &gate);
    prog.script = std::move(f.script);
    for (auto& fn : f.functions) prog.functions.emplace(fn->name, std::move(fn));
  });
  fail_if_errors();
  r.phase["sema.resolve"] = timed(tr, "sema.resolve", comp, job, [&] {
    sema::resolve_program(prog, sm, diags, loader_for(j));
  });
  fail_if_errors();
  r.phase["sema.infer"] = timed(tr, "sema.infer", comp, job, [&] {
    sema::InferOptions io;
    io.budget = &gate;
    inf = sema::infer_program(prog, diags, io);
  });
  fail_if_errors();
  r.phase["lower.lower"] = timed(tr, "lower.lower", comp, job, [&] {
    lower::LowerOptions lo;
    lo.budget = &gate;
    lir = lower::lower_program(prog, inf, diags, lo);
  });
  fail_if_errors();
  r.phase["analysis.absint"] = timed(tr, "analysis.absint", comp, job, [&] {
    absint = analysis::run_absint(prog, inf, lir);
  });
  r.phase["lower.opt"] = timed(tr, "lower.opt", comp, job, [&] {
    lower::OptOptions oo;
    oo.guard_proofs = absint.proofs;
    rep = lower::run_opt(lir, oo);
  });
  r.phase["analysis.verify"] = timed(tr, "analysis.verify", comp, job, [&] {
    analysis::verify_lir(lir, diags);
    analysis::verify_guard_elimination(rep, absint.proofs, diags);
  });
  fail_if_errors();
  vm::BcModule mod;
  r.phase["vm.bcgen"] = timed(tr, "vm.bcgen", comp, job,
                              [&] { mod = vm::compile_bytecode(lir); });
  tr.close(comp);

  vm::VmStats stats;
  driver::ParallelRun run;
  r.run_s = timed(tr, "driver.run", root, job, [&] {
    driver::ExecOptions eo = exec_options(j);
    eo.bytecode = &mod;
    eo.vm_stats = &stats;
    run = driver::run_parallel(lir, mpi::profile_by_name(j.machine), j.np, eo);
  });
  tr.close(root);
  r.wall = wall_since(t0);

  r.counts.lir_instrs = count_instrs(lir);
  r.counts.fused = rep.fused;
  r.counts.hoisted = rep.hoists.size();
  r.counts.cse_removed = rep.cse_removed;
  r.counts.guards_eliminated = rep.guards_eliminated.size();
  r.counts.vm_instrs = stats.instrs.load();
  r.counts.ic_hits = stats.cache_hits.load();
  r.counts.ic_misses = stats.cache_misses.load();
  r.counts.comm_ops = run.times.total_ops();
  r.output = std::move(run.output);
  r.times = std::move(run.times);
  if (lir_out != nullptr) *lir_out = std::move(lir);
  return r;
}

double max_over_min(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *lo > 0 ? *hi / *lo : 0.0;
}

/// Runs `lir` on `profile` outside any span (the comm-only and compute-only
/// profile runs).
mpi::RunResult run_on(const lower::LProgram& lir, const Job& j,
                      const mpi::MachineProfile& profile, std::string* out) {
  auto run = driver::run_parallel(lir, profile, j.np, exec_options(j));
  if (out != nullptr) *out = run.output;
  return run.times;
}

// ---- rtlib replay -------------------------------------------------------------

/// Replays each public rt:: call at the dense workload's shapes (rand,
/// transpose and matvec at cg's n x n, matmul at transclos's mm x mm, a full
/// reduction) beside a memcpy roof, all inside one SPMD run on the ideal
/// machine. Bytes are computed from shapes, not measured.
json::JValue rtlib_replay(const json::JValue& cfg, Tracer& tr) {
  const size_t n = static_cast<size_t>(cfg.get_number("n", 2048));
  const size_t mm = static_cast<size_t>(cfg.get_number("mm", 384));
  const int np = static_cast<int>(cfg.get_number("np", 4));
  const int reps = static_cast<int>(cfg.get_number("reps", 5));
  std::map<std::string, std::vector<double>> t;
  double sink = 0.0;
  const int job = tr.new_job();
  const int root = tr.open("rtlib.replay", -1, job);
  mpi::run_spmd(mpi::ideal(np), np, [&](mpi::Comm& comm) {
    const bool lead = comm.rank() == 0;
    auto call = [&](const char* name, auto&& fn) {
      comm.barrier();
      int id = lead ? tr.open(name, root, job) : -1;
      fn();
      comm.barrier();
      if (lead) t[name].push_back(tr.close(id));
    };
    for (int r = 0; r < reps; ++r) {
      rt::DMat a, at, y, c;
      call("rtlib.rand", [&] { a = rt::fill_rand(comm, n, n, 7 + r, 0); });
      call("rtlib.transpose", [&] { at = rt::transpose(comm, a); });
      rt::DMat x = rt::fill_rand(comm, n, 1, 9, 0);
      call("rtlib.matvec", [&] { y = rt::matvec(comm, a, x); });
      double s = 0.0;
      call("rtlib.reduce", [&] { s = rt::reduce_sum(comm, a); });
      rt::DMat b = rt::fill_rand(comm, mm, mm, 11, 0);
      call("rtlib.matmul", [&] { c = rt::matmul(comm, b, b); });
      std::vector<double> dst(a.local_elements());
      call("rtlib.memcpy", [&] {
        std::memcpy(dst.data(), a.local().data(), dst.size() * sizeof(double));
      });
      if (lead) sink += s + dst.back() + at.local()[0] + y.local()[0] + c.local()[0];
    }
  });
  tr.close(root);
  const double nn = static_cast<double>(n) * static_cast<double>(n);
  const double m3 = std::pow(static_cast<double>(mm), 3.0);
  const double dbl = sizeof(double);
  auto gbps = [](double bytes, double secs) { return bytes / secs / 1e9; };
  json::JValue m{json::JObject{}};
  m.set("rtlib.rand_ns_per_elem", median(t["rtlib.rand"]) / nn * 1e9);
  m.set("rtlib.transpose_gbps", gbps(2 * nn * dbl, median(t["rtlib.transpose"])));
  m.set("rtlib.matvec_gbps",
        gbps((nn + 2.0 * static_cast<double>(n)) * dbl, median(t["rtlib.matvec"])));
  m.set("rtlib.matmul_gflops", 2.0 * m3 / median(t["rtlib.matmul"]) / 1e9);
  m.set("rtlib.reduce_gbps", gbps(nn * dbl, median(t["rtlib.reduce"])));
  m.set("rtlib.memcpy_gbps", gbps(2 * nn * dbl, median(t["rtlib.memcpy"])));
  json::JValue sizes = json::obj(
      {{"matrix_bytes", nn * dbl},
       {"matrix_bytes_per_rank", nn * dbl / np},
       {"matmul_operand_bytes", static_cast<double>(mm * mm) * dbl},
       {"ranks", np},
       {"reps", reps},
       {"bytes", "computed from shapes (read + write), not measured"},
       {"sink", sink}});
  return json::obj({{"metrics", m}, {"sizes", sizes}});
}

// ---- generated C ------------------------------------------------------------

using EntryFn = void (*)(mpi::Comm*, std::ostream*, uint64_t, int);

/// Emits `lir` as C++, compiles it with the host compiler against the Otter
/// run-time archives (the flags of codegen/ccrun.cpp, but into work_dir), and
/// runs it on the job's machine. Returns {emit_s, cc_s, run_vtime_s}.
std::vector<double> codegen_job(const Job& j, const lower::LProgram& lir,
                                const json::JValue& cfg, Tracer& tr,
                                std::set<std::string>& outputs) {
  const std::string src = cfg.get_string("src_dir");
  const std::string bin = cfg.get_string("bin_dir");
  const std::string base = cfg.get_string("work_dir") + "/" + j.name;
  const int job = tr.new_job();
  const int root = tr.open("codegen:" + j.name, -1, job);
  std::string cpp;
  double emit_s = timed(tr, "codegen.emit", root, job,
                        [&] { cpp = codegen::emit_cpp(lir); });
  write_file(base + ".cpp", cpp);
  std::string cmd = "c++ -std=c++20 -O2 -shared -fPIC -I" + src + " " + base +
                    ".cpp " + bin + "/src/rtlib/libotter_rtlib.a " + bin +
                    "/src/minimpi/libotter_minimpi.a " + bin +
                    "/src/support/libotter_support.a -o " + base + ".so 2> " +
                    base + ".log";
  int rc = 0;
  double cc_s = timed(tr, "codegen.cc", root, job,
                      [&] { rc = std::system(cmd.c_str()); });
  if (rc != 0) die(j.name + ": host compile failed, see " + base + ".log");
  void* handle = dlopen((base + ".so").c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) die(std::string("dlopen: ") + dlerror());
  auto fn = reinterpret_cast<EntryFn>(dlsym(handle, "otter_program"));
  if (fn == nullptr) die(j.name + ": generated library lacks otter_program");
  std::ostringstream out;
  mpi::RunResult times;
  timed(tr, "codegen.run", root, job, [&] {
    times = mpi::run_spmd(mpi::profile_by_name(j.machine), j.np,
                          [&](mpi::Comm& comm) { fn(&comm, &out, j.seed, 0); });
  });
  tr.close(root);
  dlclose(handle);
  outputs.insert(out.str());
  return {emit_s, cc_s, times.max_vtime()};
}

// ---- service ----------------------------------------------------------------

/// Service::process_line in-process: warm requests with the process sandbox
/// and without it, then each cold request twice (miss, then hit).
json::JValue service_probe(const json::JValue& cfg, Tracer& tr,
                           std::map<std::string, std::set<std::string>>& outs) {
  std::vector<std::string> hot, cold;
  for (const json::JValue& v : cfg.get("hot")->as_array()) hot.push_back(v.as_string());
  for (const json::JValue& v : cfg.get("cold")->as_array()) cold.push_back(v.as_string());
  const int reps = static_cast<int>(cfg.get_number("reps", 3));

  service::ServiceConfig none_cfg;
  none_cfg.isolate = service::IsolateMode::None;
  service::ServiceConfig proc_cfg;
  proc_cfg.isolate = service::IsolateMode::Process;
  service::Service none(none_cfg);
  service::Service proc(proc_cfg);

  const int job = tr.new_job();
  const int root = tr.open("service.probe", -1, job);
  auto call = [&](service::Service& svc, const std::string& line,
                  const char* name) {
    std::string resp;
    double s = timed(tr, name, root, job, [&] { resp = svc.process_line(line); });
    std::optional<json::JValue> v = json::parse(resp);
    std::string key = line;
    if (!v || v->get_string("status") != "ok") {
      outs[key].insert("<status " + (v ? v->get_string("status") : "?") + ">");
    } else {
      outs[key].insert(v->get_string("output"));
    }
    return s;
  };
  for (const std::string& line : hot) {
    call(none, line, "service.warmup");
    call(proc, line, "service.warmup");
  }
  std::vector<double> t_none, t_proc, t_cold, t_cold_hit;
  for (int r = 0; r < reps; ++r) {
    for (const std::string& line : hot) {
      if (r % 2 == 0) {
        t_none.push_back(call(none, line, "service.process_line.none"));
        t_proc.push_back(call(proc, line, "service.process_line.process"));
      } else {
        t_proc.push_back(call(proc, line, "service.process_line.process"));
        t_none.push_back(call(none, line, "service.process_line.none"));
      }
    }
  }
  for (const std::string& line : cold) {
    t_cold.push_back(call(none, line, "service.process_line.cold"));
    t_cold_hit.push_back(call(none, line, "service.process_line.none"));
  }
  tr.close(root);
  const double p = median(t_proc);
  json::JValue m{json::JObject{}};
  m.set("service.process_s", p);
  m.set("service.sandbox_s", p - median(t_none));
  m.set("service.compile_s", median(t_cold) - median(t_cold_hit));
  return json::obj({{"metrics", m},
                    {"samples", static_cast<long>(t_proc.size())},
                    {"process_none_s", median(t_none)}});
}

// ---- modes ------------------------------------------------------------------

int mode_interp(const json::JValue& spec, const std::string& out_path) {
  json::JArray res;
  for (const Job& j : parse_jobs(spec)) {
    driver::InterpRun run = driver::run_interpreter(j.source, loader_for(j), j.seed);
    res.push_back(json::obj(
        {{"name", j.name}, {"output", run.output}, {"cpu_s", run.cpu_seconds}}));
  }
  write_file(out_path, json::obj({{"jobs", std::move(res)}}).dump());
  return 0;
}

int mode_trace(const json::JValue& spec, const std::string& out_path,
               const std::string& spans_path) {
  Tracer tr;
  const std::vector<Job> jobs = parse_jobs(spec);
  const int reps = std::max(2, static_cast<int>(spec.get_number("reps", 3)));
  const char* kPhases[] = {"frontend.parse", "sema.resolve",   "sema.infer",
                           "lower.lower",    "analysis.absint", "lower.opt",
                           "analysis.verify", "vm.bcgen"};

  std::map<std::string, std::vector<double>> phase_per_job;
  std::vector<double> run_per_job, ns_per_elem, interp_s, traced_sum,
      untraced_sum, imbalance;
  Counts total;
  double comm_vtime = 0.0, compute_vtime = 0.0;
  bool exact_ok = true;  // counts and comm vtime repeat bit for bit
  json::JArray job_rows;
  std::vector<std::vector<double>> cg_rows;  // codegen emit/cc/vtime per job
  traced_sum.assign(static_cast<size_t>(reps), 0.0);
  untraced_sum.assign(static_cast<size_t>(reps), 0.0);
  std::map<std::string, std::set<std::string>> outputs;

  for (const Job& j : jobs) {
    std::map<std::string, std::vector<double>> ph;
    std::vector<double> run_s, traced, untraced, vt, imb;
    Counts first;
    lower::LProgram lir;
    std::set<std::string>& outs = outputs[j.name];
    for (int r = 0; r < reps; ++r) {
      // Alternate the order so drift does not land on one side.
      JobRun u, t;
      if (r % 2 == 0) {
        u = run_untraced(j);
        t = run_traced(j, tr, r == 0 ? &lir : nullptr);
      } else {
        t = run_traced(j, tr);
        u = run_untraced(j);
      }
      outs.insert(u.output);
      outs.insert(t.output);
      for (const auto& [k, v] : t.phase) ph[k].push_back(v);
      run_s.push_back(t.run_s);
      traced.push_back(t.wall);
      untraced.push_back(u.wall);
      traced_sum[static_cast<size_t>(r)] += t.wall;
      untraced_sum[static_cast<size_t>(r)] += u.wall;
      vt.push_back(t.times.max_vtime());
      imb.push_back(max_over_min(t.times.vtimes));
      if (r == 0) {
        first = t.counts;
      } else if (!(t.counts == first)) {
        exact_ok = false;
      }
    }
    const double run_med = median(run_s);
    if (j.elem_ops > 0) ns_per_elem.push_back(run_med / j.elem_ops * 1e9);
    if (j.probe) continue;

    // Modeled comm + wait alone (no compute charge): deterministic, so it
    // is computed twice and must match bit for bit.
    const mpi::MachineProfile prof = mpi::profile_by_name(j.machine);
    mpi::MachineProfile comm_only = prof;
    comm_only.cpu_scale = 0.0;
    std::string o1, o2;
    const double c1 = run_on(lir, j, comm_only, &o1).max_vtime();
    const double c2 = run_on(lir, j, comm_only, &o2).max_vtime();
    if (std::memcmp(&c1, &c2, sizeof c1) != 0) exact_ok = false;
    outs.insert(o1);
    outs.insert(o2);
    mpi::MachineProfile compute_only = prof;
    compute_only.intra_latency = compute_only.inter_latency = 0.0;
    compute_only.intra_bandwidth = compute_only.inter_bandwidth =
        std::numeric_limits<double>::max();
    compute_only.send_overhead = compute_only.recv_overhead = 0.0;
    compute_only.shared_medium = false;
    const double cpu = run_on(lir, j, compute_only, nullptr).max_vtime();
    comm_vtime += c1;
    compute_vtime += cpu;

    int ij = tr.new_job();
    int is = tr.open("interp.run", -1, ij);
    driver::InterpRun ir = driver::run_interpreter(j.source, loader_for(j), j.seed);
    tr.close(is);
    interp_s.push_back(ir.cpu_seconds);

    for (const char* p : kPhases) phase_per_job[p].push_back(median(ph[p]));
    run_per_job.push_back(run_med);
    imbalance.push_back(median(imb));
    total.lir_instrs += first.lir_instrs;
    total.fused += first.fused;
    total.hoisted += first.hoisted;
    total.cse_removed += first.cse_removed;
    total.guards_eliminated += first.guards_eliminated;
    total.vm_instrs += first.vm_instrs;
    total.ic_hits += first.ic_hits;
    total.ic_misses += first.ic_misses;
    total.comm_ops += first.comm_ops;

    const double vmed = median(vt);
    json::JValue row = json::obj(
        {{"name", j.name},
         {"np", j.np},
         {"machine", j.machine},
         {"traced_s", median(traced)},
         {"untraced_s", median(untraced)},
         {"run_s", run_med},
         {"vtime_s", vmed},
         {"comm_vtime_s", c1},
         {"compute_vtime_s", cpu},
         {"interp_s", ir.cpu_seconds},
         {"speedup", vmed > 0 ? ir.cpu_seconds * prof.cpu_scale / vmed : 0.0},
         {"vm_instrs", static_cast<double>(first.vm_instrs)},
         {"comm_ops", static_cast<double>(first.comm_ops)}});
    if (const json::JValue* cg = spec.get("codegen")) {
      std::vector<double> c = codegen_job(j, lir, *cg, tr, outs);
      row.set("codegen_emit_s", c[0]);
      row.set("codegen_cc_s", c[1]);
      row.set("codegen_run_vtime_s", c[2]);
      cg_rows.push_back(c);
    }
    job_rows.push_back(std::move(row));
  }

  json::JValue m{json::JObject{}};
  for (const char* p : kPhases) m.set(std::string(p) + "_s", mean(phase_per_job[p]));
  m.set("lower.lir_instrs", static_cast<double>(total.lir_instrs));
  m.set("lower.fused", static_cast<double>(total.fused));
  m.set("lower.hoisted", static_cast<double>(total.hoisted));
  m.set("lower.cse_removed", static_cast<double>(total.cse_removed));
  m.set("lower.guards_eliminated", static_cast<double>(total.guards_eliminated));
  m.set("vm.instrs", static_cast<double>(total.vm_instrs));
  m.set("vm.ic_hits", static_cast<double>(total.ic_hits));
  m.set("vm.ic_misses", static_cast<double>(total.ic_misses));
  m.set("driver.run_s", mean(run_per_job));
  m.set("kernel.ns_per_elem", median(ns_per_elem));
  m.set("minimpi.ops", static_cast<double>(total.comm_ops));
  m.set("minimpi.comm_vtime_s", comm_vtime);
  m.set("minimpi.compute_vtime_s", compute_vtime);
  m.set("minimpi.imbalance", imbalance.empty()
                                 ? 0.0
                                 : *std::max_element(imbalance.begin(), imbalance.end()));
  m.set("interp.s", mean(interp_s));
  std::vector<double> emit, cc, cvt;
  for (const auto& c : cg_rows) {
    emit.push_back(c[0]);
    cc.push_back(c[1]);
    cvt.push_back(c[2]);
  }
  m.set("codegen.emit_s", mean(emit));
  m.set("codegen.cc_s", mean(cc));
  m.set("codegen.run_vtime_s", mean(cvt));
  m.set("trace.overhead_s", median(traced_sum) - median(untraced_sum));

  json::JValue result = json::obj(
      {{"metrics", m},
       {"jobs", std::move(job_rows)},
       {"reps", reps},
       {"exact_repeat", exact_ok},
       {"traced_job_s", median(traced_sum)},
       {"untraced_job_s", median(untraced_sum)}});
  if (const json::JValue* rc = spec.get("rtlib")) result.set("rtlib", rtlib_replay(*rc, tr));
  if (const json::JValue* sc = spec.get("service")) {
    result.set("service", service_probe(*sc, tr, outputs));
  }
  json::JValue outs{json::JObject{}};
  for (const auto& [k, set] : outputs) {
    json::JArray a(set.begin(), set.end());
    outs.set(k, std::move(a));
  }
  result.set("outputs", std::move(outs));
  // Spans are written only now, at the end of the run.
  write_file(spans_path, tr.dump().dump());
  write_file(out_path, result.dump());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: otter_tracer interp SPEC OUT | trace SPEC OUT SPANS\n";
    return 64;
  }
  const std::string mode = argv[1];
  std::optional<json::JValue> spec = json::parse(read_file(argv[2]));
  if (!spec || !spec->is_object()) die(std::string("bad spec ") + argv[2]);
  try {
    if (mode == "interp") return mode_interp(*spec, argv[3]);
    if (mode == "trace" && argc >= 5) return mode_trace(*spec, argv[3], argv[4]);
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }
  std::cerr << "otter_tracer: unknown mode " << mode << '\n';
  return 64;
}
