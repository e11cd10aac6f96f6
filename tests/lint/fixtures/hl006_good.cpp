// Fixture: HL006 hal-park-loop-protocol (known-good).
//
// The full MnMachine-style handshake: the park flag is re-armed with a
// seq_cst exchange at the top of every loop iteration — before EACH
// predicate evaluation — and disarmed with a seq_cst exchange after the
// loop; the sender side lowers it with the matching RMW and notifies under
// the mutex when it observed true.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

namespace fix {

struct NodeRec {
  std::atomic<bool> sleeping{false};
  std::condition_variable cv;
  std::mutex m;
};

bool pred();
std::chrono::steady_clock::time_point due();

void park(NodeRec& rec, bool deadline) {
  std::unique_lock<std::mutex> lock(rec.m);
  for (;;) {
    rec.sleeping.exchange(true, std::memory_order_seq_cst);
    if (pred()) break;
    if (deadline) {
      if (rec.cv.wait_until(lock, due()) == std::cv_status::timeout) {
        break;
      }
    } else {
      rec.cv.wait(lock);
    }
  }
  rec.sleeping.exchange(false, std::memory_order_seq_cst);
}

// Sender side of the handshake: lower the flag with the same seq_cst RMW;
// only a true->false transition pays the mutex + notify.
void wake(NodeRec& rec) {
  if (rec.sleeping.exchange(false, std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> g(rec.m);
    rec.cv.notify_one();
  }
}

}  // namespace fix
