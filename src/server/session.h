// One client connection of the retiming daemon.
//
// A Session owns the accepted SocketStream and a reader thread that parses
// request frames in arrival order. Job requests are answered with an
// "accepted" frame and handed to the server's shared ThreadPool through a
// per-session TaskGroup; control frames (hello/stats/cancel/shutdown) are
// answered inline. Response frames from concurrently finishing jobs are
// serialized line-atomically through one write mutex, so frames never
// interleave mid-line even though requests complete out of order.
//
// Cancellation: every in-flight request holds its own CancelToken chained
// onto the session token (itself chained onto the server's stop token), so
// a `{"cancel": id}` frame stops one request, a client disconnect (reader
// EOF) stops everything the connection still has in flight, and a server
// shutdown stops all sessions — each through the same poll the engines
// already do. The reader drains its TaskGroup before the session reports
// finished, so a Session is never destroyed under a running job.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "base/cancel.h"
#include "base/socket.h"
#include "base/thread_pool.h"
#include "server/protocol.h"

namespace mcrt {

class RetimingServer;

class Session {
 public:
  Session(RetimingServer& server, SocketStream stream, std::uint64_t id);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Sends the greeting hello frame and launches the reader thread.
  void start();

  /// Asks the session to wind down: cancels in-flight requests and
  /// shuts the stream down so a blocked reader unblocks. Thread-safe.
  void initiate_shutdown();

  /// True once the reader exited and every submitted job drained; the
  /// server reaps (joins + destroys) finished sessions.
  [[nodiscard]] bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }
  /// Joins the reader thread (call only after initiate_shutdown() or once
  /// finished()).
  void join();

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  /// A job's admission slot: released once, by finish_job just before the
  /// terminal frame, or on destruction if the job unwinds before that.
  class AdmissionSlot {
   public:
    AdmissionSlot(RetimingServer& server, const std::string& tenant)
        : server_(server), tenant_(tenant) {}
    ~AdmissionSlot() { release(); }
    AdmissionSlot(const AdmissionSlot&) = delete;
    AdmissionSlot& operator=(const AdmissionSlot&) = delete;
    void release();

   private:
    RetimingServer& server_;
    const std::string& tenant_;
    bool held_ = true;
  };

  void reader_loop();
  void handle_frame(const RequestFrame& frame);
  /// Runs one job request on the current (pool) thread, start to frame.
  void run_job(JobRequest request, std::shared_ptr<CancelToken> token);
  /// Serves `request` from `cached`, re-stamping the job identity and
  /// honoring a server-side output write.
  void serve_cached(const JobRequest& request, CachedResult cached,
                    AdmissionSlot& slot);
  /// Streams a finished job's diagnostics and result frame, updates the
  /// server counters and releases the job's admission slot before the
  /// result frame goes out.
  void finish_job(const JobRequest& request, const BulkJobResult& result,
                  bool cached, const std::string* blif, AdmissionSlot& slot);

  bool send_frame(const std::string& line);

  /// Registers a request id; false (error frame sent) on duplicates.
  bool register_request(const std::string& id,
                        const std::shared_ptr<CancelToken>& token);
  void unregister_request(const std::string& id);

  RetimingServer& server_;
  SocketStream stream_;
  const std::uint64_t id_;

  std::mutex write_mutex_;   ///< one response line at a time
  std::thread reader_;
  TaskGroup group_;          ///< this session's jobs on the server pool
  CancelToken cancel_;       ///< chained onto the server stop token

  std::mutex requests_mutex_;
  std::map<std::string, std::shared_ptr<CancelToken>> active_;

  std::atomic<bool> finished_{false};
};

}  // namespace mcrt
