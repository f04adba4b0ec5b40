#include "minimpi/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

#include <time.h>

namespace otter::mpi {

// -- profiles -----------------------------------------------------------------

MachineProfile meiko_cs2() {
  MachineProfile p;
  p.name = "meiko_cs2";
  p.max_ranks = 16;
  p.ranks_per_node = 1;
  // Scales measured host-CPU seconds up to a ~1997 CPU (the host is roughly
  // 40x faster than the machines' UltraSPARC/SuperSPARC processors), so the
  // compute/communication balance matches the paper's test beds.
  p.cpu_scale = 40.0;
  p.intra_latency = 20e-6;  // single CPU per node, but keep defined
  p.intra_bandwidth = 200e6;
  p.inter_latency = 20e-6;  // Elan network
  p.inter_bandwidth = 40e6;
  p.send_overhead = 4e-6;
  p.recv_overhead = 4e-6;
  return p;
}

MachineProfile sparc20_cluster() {
  MachineProfile p;
  p.name = "sparc20_cluster";
  p.max_ranks = 16;
  p.ranks_per_node = 4;  // four 4-CPU SMP boxes
  p.cpu_scale = 60.0;    // SuperSPARC: slower still than the UltraSPARC

  p.intra_latency = 30e-6;  // shared-memory MPI within a box
  p.intra_bandwidth = 60e6;
  p.inter_latency = 1.2e-3;  // TCP over 10 Mb/s Ethernet
  p.inter_bandwidth = 1.05e6;
  p.send_overhead = 15e-6;
  p.recv_overhead = 15e-6;
  p.shared_medium = true;
  return p;
}

MachineProfile enterprise_smp() {
  MachineProfile p;
  p.name = "enterprise_smp";
  p.max_ranks = 8;
  p.ranks_per_node = 8;
  p.cpu_scale = 40.0;
  p.intra_latency = 10e-6;
  p.intra_bandwidth = 150e6;
  p.inter_latency = 10e-6;  // unused: one node
  p.inter_bandwidth = 150e6;
  p.send_overhead = 2e-6;
  p.recv_overhead = 2e-6;
  return p;
}

MachineProfile ideal(int max_ranks) {
  MachineProfile p;
  p.name = "ideal";
  p.max_ranks = max_ranks;
  p.ranks_per_node = max_ranks;
  p.cpu_scale = 0.0;  // comm model only; no compute charging
  return p;
}

MachineProfile profile_by_name(const std::string& name) {
  if (name == "meiko_cs2") return meiko_cs2();
  if (name == "sparc20_cluster") return sparc20_cluster();
  if (name == "enterprise_smp") return enterprise_smp();
  return ideal();
}

// -- SpmdFailure --------------------------------------------------------------

SpmdFailure::SpmdFailure(std::vector<RankFailure> failures)
    : MpiError(format(failures)), failures_(std::move(failures)) {
  // Primaries first, rank order within each class — callers index freely.
  std::stable_sort(failures_.begin(), failures_.end(),
                   [](const RankFailure& a, const RankFailure& b) {
                     return a.primary > b.primary;
                   });
}

const RankFailure& SpmdFailure::first() const {
  for (const RankFailure& f : failures_) {
    if (f.primary) return f;
  }
  return failures_.front();
}

size_t SpmdFailure::primary_count() const {
  size_t n = 0;
  for (const RankFailure& f : failures_) n += f.primary ? 1 : 0;
  return n;
}

std::string SpmdFailure::format(const std::vector<RankFailure>& failures) {
  std::ostringstream ss;
  ss << "SPMD run failed: ";
  size_t primaries = 0;
  for (const RankFailure& f : failures) {
    if (!f.primary) continue;
    if (primaries > 0) ss << "; ";
    ss << "rank " << f.rank << ": " << f.what << " (after " << f.ops_completed
       << " comm ops)";
    ++primaries;
  }
  if (primaries == 0 && !failures.empty()) {
    // No rank failed on its own: a watchdog/deadlock abort — every entry
    // carries the same diagnosis, so print it once.
    ss << failures.front().what;
  } else if (failures.size() > primaries) {
    ss << "; " << failures.size() - primaries << " rank(s) aborted in sympathy";
  }
  return ss.str();
}

// -- network ------------------------------------------------------------------

namespace detail {

Network::Network(MachineProfile profile_in, int nranks_in, SpmdOptions opts_in)
    : profile(std::move(profile_in)),
      nranks(nranks_in),
      opts(std::move(opts_in)),
      final_vtimes(static_cast<size_t>(nranks_in), 0.0),
      final_ops(static_cast<size_t>(nranks_in), 0),
      queues_(static_cast<size_t>(nranks_in)),
      waiters_(static_cast<size_t>(nranks_in)) {}

void Network::deliver(int dst, Message msg) {
  std::lock_guard<std::mutex> lock(mu_);
  queues_.at(static_cast<size_t>(dst)).push_back(std::move(msg));
  cv_.notify_all();
}

bool Network::match_in_queue_locked(int dst, int src, int tag) const {
  for (const Message& m : queues_[static_cast<size_t>(dst)]) {
    if (m.src == src && m.tag == tag) return true;
  }
  return false;
}

std::string Network::waitfor_report_locked() const {
  std::ostringstream ss;
  ss << "wait-for graph:";
  bool first = true;
  for (int r = 0; r < nranks; ++r) {
    const Waiter& w = waiters_[static_cast<size_t>(r)];
    if (!w.active) continue;
    ss << (first ? " " : "; ") << "rank " << r << " waits on rank " << w.src
       << " (tag " << w.tag << ")";
    first = false;
  }
  int exited = done_;
  if (exited > 0) ss << (first ? " " : "; ") << exited << " rank(s) already exited";
  return ss.str();
}

void Network::abort_locked(int rank, const std::string& what) {
  if (aborted_) return;
  aborted_ = true;
  if (rank >= 0) {
    abort_what_ = "aborted: rank " + std::to_string(rank) + " failed: " + what;
  } else {
    abort_what_ = what;
  }
  cv_.notify_all();
}

void Network::abort(int rank, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  abort_locked(rank, what);
}

void Network::throw_if_aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) throw AbortedError(abort_what_);
}

bool Network::check_deadlock_locked() {
  if (aborted_) return true;
  if (waiting_ == 0 || waiting_ != nranks - done_) return false;
  // Every live rank is blocked. If any of them has a deliverable message it
  // merely has not woken yet; otherwise nobody can ever send again.
  for (int r = 0; r < nranks; ++r) {
    const Waiter& w = waiters_[static_cast<size_t>(r)];
    if (!w.active) continue;
    if (match_in_queue_locked(r, w.src, w.tag)) return false;
  }
  abort_locked(-1, "deadlock detected: every live rank is blocked on a "
                   "message that can never arrive; " +
                       waitfor_report_locked());
  return true;
}

void Network::rank_done(int rank) {
  (void)rank;
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  // Peers blocked on this rank can now never be satisfied; recheck.
  check_deadlock_locked();
  cv_.notify_all();
}

Message Network::await(int dst, int src, int tag) {
  std::unique_lock<std::mutex> lock(mu_);
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opts.watchdog_timeout));
  // A session-scoped run deadline tightens the per-wait watchdog: a rank may
  // never stay blocked past the request's own deadline.
  if (opts.has_deadline() && opts.run_deadline < deadline) {
    deadline = opts.run_deadline;
  }
  Waiter& me = waiters_[static_cast<size_t>(dst)];
  me = {true, src, tag};
  ++waiting_;
  // Deregister on every exit path (match, abort, watchdog).
  struct Deregister {
    Waiter& w;
    int& count;
    ~Deregister() {
      w.active = false;
      --count;
    }
  } deregister{me, waiting_};
  for (;;) {
    if (aborted_) throw AbortedError(abort_what_);
    auto& q = queues_[static_cast<size_t>(dst)];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        Message msg = std::move(*it);
        q.erase(it);
        return msg;
      }
    }
    if (check_deadlock_locked()) throw AbortedError(abort_what_);
    if (opts.expired()) {
      abort_locked(-1, std::string(opts.expiry_reason()) +
                           " while rank " + std::to_string(dst) +
                           " waited on rank " + std::to_string(src) + "; " +
                           waitfor_report_locked());
      throw AbortedError(abort_what_);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      abort_locked(-1, "watchdog: rank " + std::to_string(dst) +
                           " blocked for more than " +
                           std::to_string(opts.watchdog_timeout) +
                           "s waiting on rank " + std::to_string(src) +
                           " (tag " + std::to_string(tag) + "); " +
                           waitfor_report_locked());
      throw AbortedError(abort_what_);
    }
    // Short slices so the backstop deadline is honoured even if no
    // notification ever arrives.
    cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

}  // namespace detail

// -- Comm ---------------------------------------------------------------------

Comm::Comm(detail::Network& net, int rank)
    : net_(net), rank_(rank), faults_(net.opts.fault, rank) {
  last_cpu_ = now_cpu();
}

double Comm::now_cpu() const {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Comm::charge_compute() {
  double now = now_cpu();
  double delta = now - last_cpu_;
  last_cpu_ = now;
  if (delta > 0) vtime_ += delta * net_.profile.cpu_scale;
}

void Comm::op_event(const char* what) {
  net_.throw_if_aborted();
  if (net_.opts.expired()) {
    // Sender-side loops never enter await(), so the session deadline must
    // also gate every op. First rank to notice poisons the whole run.
    net_.abort(-1, net_.opts.expiry_reason());
    throw AbortedError(net_.opts.expiry_reason());
  }
  uint64_t op = ops_ + 1;
  if (faults_.crash_now(rank_, op)) {
    publish_stats();
    throw MpiError("fault injection: rank " + std::to_string(rank_) +
                   " crashed at communication op " + std::to_string(op) +
                   " (" + what + ")");
  }
  ++ops_;
}

void Comm::check_counts(const char* op,
                        const std::vector<size_t>& counts) const {
  if (static_cast<int>(counts.size()) != size()) {
    throw MpiError(std::string(op) + ": counts has " +
                   std::to_string(counts.size()) + " entries but the " +
                   "communicator has " + std::to_string(size()) +
                   " ranks (at rank " + std::to_string(rank_) + ")");
  }
}

void Comm::send(int dst, int tag, const void* data, size_t bytes) {
  if (dst < 0 || dst >= size()) {
    throw MpiError("send: bad destination rank " + std::to_string(dst) +
                   " (communicator has " + std::to_string(size()) +
                   " ranks; tag " + std::to_string(tag) + ")");
  }
  op_event("send");
  charge_compute();
  const MachineProfile& p = net_.profile;
  double wire = p.latency(rank_, dst) +
                static_cast<double>(bytes) / p.bandwidth(rank_, dst);
  detail::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  const auto* bytes_in = static_cast<const std::byte*>(data);
  msg.payload.assign(bytes_in, bytes_in + bytes);
  if (p.shared_medium && !p.same_node(rank_, dst)) {
    // Half-duplex shared Ethernet: the sender occupies the wire for the full
    // transfer, so back-to-back sends serialize at the sender.
    vtime_ += p.send_overhead + wire;
    msg.ready_vtime = vtime_;
  } else {
    // Switched fabric: sender is free again after the software overhead and
    // transfers to distinct destinations pipeline.
    vtime_ += p.send_overhead;
    msg.ready_vtime = vtime_ + wire;
  }
  detail::FaultStream::Decision fd = faults_.next_send();
  msg.ready_vtime += fd.extra_delay;
  if (fd.corrupt && !msg.payload.empty()) {
    msg.payload[fd.corrupt_byte % msg.payload.size()] ^= std::byte{0xFF};
  }
  if (fd.drop) return;  // the sender paid the cost; the network ate the data
  if (fd.duplicate) net_.deliver(dst, msg);
  net_.deliver(dst, std::move(msg));
}

void Comm::recv(int src, int tag, void* data, size_t bytes) {
  if (src < 0 || src >= size()) {
    throw MpiError("recv: bad source rank " + std::to_string(src) +
                   " (communicator has " + std::to_string(size()) +
                   " ranks; tag " + std::to_string(tag) + ")");
  }
  op_event("recv");
  charge_compute();
  detail::Message msg = net_.await(rank_, src, tag);
  if (msg.payload.size() != bytes) {
    throw MpiError("recv: message size mismatch at rank " +
                   std::to_string(rank_) + " from rank " + std::to_string(src) +
                   " (tag " + std::to_string(tag) + "): expected " +
                   std::to_string(bytes) + " bytes, got " +
                   std::to_string(msg.payload.size()));
  }
  if (bytes > 0) std::memcpy(data, msg.payload.data(), bytes);
  // Clock may not move backwards: we waited (virtually) for the data.
  vtime_ = std::max(vtime_ + net_.profile.recv_overhead, msg.ready_vtime);
  // Waiting in await() burned host CPU in the condvar; do not charge it.
  last_cpu_ = now_cpu();
}

namespace {
constexpr int kTagBarrier = 1 << 20;
constexpr int kTagBcast = 2 << 20;
constexpr int kTagReduce = 3 << 20;
constexpr int kTagGather = 4 << 20;
constexpr int kTagScatter = 5 << 20;
constexpr int kTagAllgather = 6 << 20;
constexpr int kTagAlltoall = 7 << 20;
}  // namespace

void Comm::barrier() {
  // Dissemination barrier: ceil(log2 P) rounds.
  int p = size();
  if (p == 1) {
    charge_compute();
    return;
  }
  double token = 0.0;
  for (int round = 1; round < p; round <<= 1) {
    int dst = (rank_ + round) % p;
    int src = (rank_ - round % p + p) % p;
    send(dst, kTagBarrier + round, &token, sizeof token);
    recv(src, kTagBarrier + round, &token, sizeof token);
  }
}

void Comm::bcast(void* data, size_t bytes, int root) {
  int p = size();
  if (p == 1) {
    charge_compute();
    return;
  }
  if (net_.profile.linear_collectives) {
    // Ablation: root sends to every rank directly.
    if (rank_ == root) {
      for (int r = 0; r < p; ++r) {
        if (r != root) send(r, kTagBcast, data, bytes);
      }
    } else {
      recv(root, kTagBcast, data, bytes);
    }
    return;
  }
  // Binomial tree rooted at `root`. Relative rank r' = (rank - root) mod p.
  int rel = (rank_ - root + p) % p;
  // Receive from parent (unless root).
  if (rel != 0) {
    int mask = 1;
    while (mask < p) {
      if (rel & mask) break;
      mask <<= 1;
    }
    int parent_rel = rel & ~mask;
    int parent = (parent_rel + root) % p;
    recv(parent, kTagBcast, data, bytes);
    // Forward to children below that bit.
    for (int child_mask = mask >> 1; child_mask >= 1; child_mask >>= 1) {
      int child_rel = rel | child_mask;
      if (child_rel < p) send((child_rel + root) % p, kTagBcast, data, bytes);
    }
  } else {
    int top = 1;
    while (top < p) top <<= 1;
    for (int child_mask = top >> 1; child_mask >= 1; child_mask >>= 1) {
      int child_rel = child_mask;
      if (child_rel < p) send((child_rel + root) % p, kTagBcast, data, bytes);
    }
  }
}

namespace {
void apply_reduce(double* acc, const double* in, size_t n,
                  Comm::ReduceOp op) {
  switch (op) {
    case Comm::ReduceOp::Sum:
      for (size_t i = 0; i < n; ++i) acc[i] += in[i];
      break;
    case Comm::ReduceOp::Min:
      for (size_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
    case Comm::ReduceOp::Max:
      for (size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case Comm::ReduceOp::Prod:
      for (size_t i = 0; i < n; ++i) acc[i] *= in[i];
      break;
  }
}
}  // namespace

void Comm::reduce(const double* in, double* out, size_t n, ReduceOp op,
                  int root) {
  int p = size();
  std::vector<double> acc(in, in + n);
  if (p > 1 && net_.profile.linear_collectives) {
    // Ablation: every rank sends its block straight to the root.
    if (rank_ == root) {
      std::vector<double> incoming(n);
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        recv(r, kTagReduce, incoming.data(), n * sizeof(double));
        apply_reduce(acc.data(), incoming.data(), n, op);
      }
    } else {
      send(root, kTagReduce, acc.data(), n * sizeof(double));
    }
    if (rank_ == root) std::copy(acc.begin(), acc.end(), out);
    charge_compute();
    return;
  }
  if (p > 1) {
    int rel = (rank_ - root + p) % p;
    std::vector<double> incoming(n);
    // Binomial tree fold: children push partial results toward the root.
    int mask = 1;
    while (mask < p) {
      if (rel & mask) {
        int parent = ((rel & ~mask) + root) % p;
        send(parent, kTagReduce, acc.data(), n * sizeof(double));
        break;
      }
      int child_rel = rel | mask;
      if (child_rel < p) {
        recv((child_rel + root) % p, kTagReduce, incoming.data(),
             n * sizeof(double));
        apply_reduce(acc.data(), incoming.data(), n, op);
      }
      mask <<= 1;
    }
  }
  if (rank_ == root) {
    std::copy(acc.begin(), acc.end(), out);
  }
  charge_compute();
}

void Comm::allreduce(const double* in, double* out, size_t n, ReduceOp op) {
  std::vector<double> tmp(n);
  reduce(in, tmp.data(), n, op, 0);
  if (rank_ == 0) std::copy(tmp.begin(), tmp.end(), out);
  bcast(out, n * sizeof(double), 0);
}

double Comm::allreduce_scalar(double v, ReduceOp op) {
  double out = 0.0;
  allreduce(&v, &out, 1, op);
  return out;
}

void Comm::allgatherv(const double* in, double* out,
                      const std::vector<size_t>& counts) {
  int p = size();
  check_counts("allgatherv", counts);
  std::vector<size_t> offsets(static_cast<size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) offsets[r + 1] = offsets[r] + counts[r];
  // Copy own block.
  std::copy(in, in + counts[rank_], out + offsets[rank_]);
  if (p == 1) {
    charge_compute();
    return;
  }
  // Ring algorithm: p-1 steps, each rank forwards the block it received.
  int right = (rank_ + 1) % p;
  int left = (rank_ - 1 + p) % p;
  int have = rank_;  // which rank's block we forward this step
  for (int step = 0; step < p - 1; ++step) {
    send(right, kTagAllgather + step, out + offsets[have],
         counts[have] * sizeof(double));
    int incoming = (rank_ - step - 1 + 2 * p) % p;  // block moving on the ring
    recv(left, kTagAllgather + step, out + offsets[incoming],
         counts[incoming] * sizeof(double));
    have = incoming;
  }
}

void Comm::gatherv(const double* in, double* out,
                   const std::vector<size_t>& counts, int root) {
  int p = size();
  check_counts("gatherv", counts);
  if (rank_ == root) {
    size_t off = 0;
    for (int r = 0; r < p; ++r) {
      if (r == root) {
        std::copy(in, in + counts[r], out + off);
      } else if (counts[r] > 0) {
        recv(r, kTagGather, out + off, counts[r] * sizeof(double));
      }
      off += counts[r];
    }
  } else if (counts[rank_] > 0) {
    send(root, kTagGather, in, counts[rank_] * sizeof(double));
  }
  charge_compute();
}

void Comm::scatterv(const double* in, double* out,
                    const std::vector<size_t>& counts, int root) {
  int p = size();
  check_counts("scatterv", counts);
  if (rank_ == root) {
    size_t off = 0;
    for (int r = 0; r < p; ++r) {
      if (r == root) {
        std::copy(in + off, in + off + counts[r], out);
      } else if (counts[r] > 0) {
        send(r, kTagScatter, in + off, counts[r] * sizeof(double));
      }
      off += counts[r];
    }
  } else if (counts[rank_] > 0) {
    recv(root, kTagScatter, out, counts[rank_] * sizeof(double));
  }
  charge_compute();
}

void Comm::alltoallv(const std::vector<std::vector<double>>& send_blocks,
                     std::vector<std::vector<double>>& recv_blocks) {
  int p = size();
  if (static_cast<int>(send_blocks.size()) != p) {
    throw MpiError("alltoallv: send_blocks has " +
                   std::to_string(send_blocks.size()) +
                   " entries but the communicator has " + std::to_string(p) +
                   " ranks (at rank " + std::to_string(rank_) + ")");
  }
  recv_blocks.assign(static_cast<size_t>(p), {});
  recv_blocks[rank_] = send_blocks[rank_];
  // Pairwise exchange: step s pairs rank with rank XOR-free (r +- s) pattern.
  for (int step = 1; step < p; ++step) {
    int dst = (rank_ + step) % p;
    int src = (rank_ - step + p) % p;
    // Exchange block sizes first.
    double out_count = static_cast<double>(send_blocks[dst].size());
    send(dst, kTagAlltoall + 2 * step, &out_count, sizeof out_count);
    double in_count = 0;
    recv(src, kTagAlltoall + 2 * step, &in_count, sizeof in_count);
    recv_blocks[src].resize(static_cast<size_t>(in_count));
    if (!send_blocks[dst].empty()) {
      send(dst, kTagAlltoall + 2 * step + 1, send_blocks[dst].data(),
           send_blocks[dst].size() * sizeof(double));
    }
    if (!recv_blocks[src].empty()) {
      recv(src, kTagAlltoall + 2 * step + 1, recv_blocks[src].data(),
           recv_blocks[src].size() * sizeof(double));
    }
  }
}

void Comm::finish() {
  charge_compute();
  net_.final_vtimes[static_cast<size_t>(rank_)] = vtime_;
  publish_stats();
}

void Comm::publish_stats() {
  net_.final_ops[static_cast<size_t>(rank_)] = ops_;
}

// -- runner -------------------------------------------------------------------

double RunResult::max_vtime() const {
  double m = 0.0;
  for (double t : vtimes) m = std::max(m, t);
  return m;
}

uint64_t RunResult::total_ops() const {
  uint64_t n = 0;
  for (uint64_t o : ops) n += o;
  return n;
}

RunResult run_spmd(const MachineProfile& profile, int nranks,
                   const std::function<void(Comm&)>& body,
                   const SpmdOptions& opts) {
  if (nranks < 1) throw MpiError("run_spmd: need at least one rank");
  if (nranks > profile.max_ranks) {
    throw MpiError("run_spmd: profile '" + profile.name + "' supports at most " +
                   std::to_string(profile.max_ranks) + " ranks");
  }
  detail::Network net(profile, nranks, opts);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(nranks));
  std::vector<char> primary(static_cast<size_t>(nranks), 0);
  threads.reserve(static_cast<size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r]() {
      size_t slot = static_cast<size_t>(r);
      Comm comm(net, r);
      try {
        body(comm);
        comm.finish();
      } catch (const AbortedError&) {
        // Torn down in sympathy with another rank's failure.
        errors[slot] = std::current_exception();
      } catch (const std::exception& e) {
        errors[slot] = std::current_exception();
        primary[slot] = 1;
        net.abort(r, e.what());
      } catch (...) {
        errors[slot] = std::current_exception();
        primary[slot] = 1;
        net.abort(r, "unknown error");
      }
      comm.publish_stats();
      // After this, rank r sends nothing more: peers blocked on it must be
      // diagnosed, not left hanging.
      net.rank_done(r);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<RankFailure> failures;
  for (int r = 0; r < nranks; ++r) {
    size_t slot = static_cast<size_t>(r);
    if (!errors[slot]) continue;
    RankFailure f;
    f.rank = r;
    f.primary = primary[slot] != 0;
    f.ops_completed = net.final_ops[slot];
    try {
      std::rethrow_exception(errors[slot]);
    } catch (const std::exception& e) {
      f.what = e.what();
      if (const auto* coded = dynamic_cast<const CodedError*>(&e))
        f.code = coded->diag_code();
    } catch (...) {
      f.what = "unknown error";
    }
    failures.push_back(std::move(f));
  }
  if (!failures.empty()) throw SpmdFailure(std::move(failures));
  RunResult result;
  result.vtimes = net.final_vtimes;
  result.ops = net.final_ops;
  return result;
}

RunResult run_spmd(const MachineProfile& profile, int nranks,
                   const std::function<void(Comm&)>& body) {
  return run_spmd(profile, nranks, body, SpmdOptions{});
}

}  // namespace otter::mpi
