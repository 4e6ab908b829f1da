#include "net/tcp.h"

#include <algorithm>
#include <cstring>

namespace djvu::net {

void HalfPipe::write(BytesView data) {
  const std::uint32_t mss = std::max<std::uint32_t>(
      1, faults_->config().segmentation.mss);
  std::size_t off = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (reader_closed_) {
      throw NetError(NetErrorCode::kConnectionReset,
                     "write to a connection whose peer has closed");
    }
    if (writer_closed_) {
      throw NetError(NetErrorCode::kSocketClosed, "write after close");
    }
    auto now = std::chrono::steady_clock::now();
    while (off < data.size()) {
      std::size_t len = std::min<std::size_t>(mss, data.size() - off);
      Segment seg;
      seg.data.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                      data.begin() + static_cast<std::ptrdiff_t>(off + len));
      TimePoint ready = now + faults_->draw_stream_delay();
      if (ready < last_ready_) ready = last_ready_;  // preserve stream order
      last_ready_ = ready;
      seg.ready = ready;
      segments_.push_back(std::move(seg));
      off += len;
    }
    total_written_ += data.size();
  }
  cv_.notify_all();
}

std::size_t HalfPipe::ready_bytes_locked(TimePoint now) const {
  std::size_t n = 0;
  std::size_t skip = front_offset_;
  for (const Segment& seg : segments_) {
    if (seg.ready > now) break;
    n += seg.data.size() - skip;
    skip = 0;
  }
  return n;
}

std::size_t HalfPipe::consume_locked(std::uint8_t* out, std::size_t max,
                                     std::size_t ready) {
  std::size_t want = std::min(max, ready);
  // Variable message sizes: with some probability stop at the first
  // segment boundary even though more ready bytes follow.
  std::size_t first_remaining = segments_.front().data.size() - front_offset_;
  if (want > first_remaining && faults_->draw_short_read()) {
    want = first_remaining;
  }
  std::size_t copied = 0;
  while (copied < want) {
    Segment& seg = segments_.front();
    std::size_t chunk =
        std::min(want - copied, seg.data.size() - front_offset_);
    std::memcpy(out + copied, seg.data.data() + front_offset_, chunk);
    copied += chunk;
    front_offset_ += chunk;
    if (front_offset_ == seg.data.size()) {
      segments_.pop_front();
      front_offset_ = 0;
    }
  }
  total_read_ += copied;
  return copied;
}

std::size_t HalfPipe::read(std::uint8_t* out, std::size_t max) {
  if (max == 0) return 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (reader_closed_) {
      throw NetError(NetErrorCode::kSocketClosed, "read after close");
    }
    auto now = std::chrono::steady_clock::now();
    std::size_t ready = ready_bytes_locked(now);
    if (ready > 0) return consume_locked(out, max, ready);
    if (writer_closed_ && segments_.empty()) return 0;  // EOF
    if (!segments_.empty()) {
      // Wait on a copy: wait_until reads its deadline again after waking,
      // and a concurrent close may free the segment meanwhile.
      const TimePoint next = segments_.front().ready;
      cv_.wait_until(lock, next);
    } else {
      cv_.wait(lock);
    }
  }
}

std::optional<std::size_t> HalfPipe::read_for(std::uint8_t* out,
                                              std::size_t max,
                                              Duration timeout) {
  if (max == 0) return std::size_t{0};
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (reader_closed_) {
      throw NetError(NetErrorCode::kSocketClosed, "read after close");
    }
    auto now = std::chrono::steady_clock::now();
    std::size_t ready = ready_bytes_locked(now);
    if (ready > 0) return consume_locked(out, max, ready);
    if (writer_closed_ && segments_.empty()) return std::size_t{0};  // EOF
    if (now >= deadline) return std::nullopt;  // SO_TIMEOUT
    auto wake = deadline;
    if (!segments_.empty() && segments_.front().ready < wake) {
      wake = segments_.front().ready;
    }
    cv_.wait_until(lock, wake);
  }
}

bool HalfPipe::wait_available(std::size_t n) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (reader_closed_) return false;
    auto now = std::chrono::steady_clock::now();
    if (ready_bytes_locked(now) >= n) return true;
    // Total bytes that can ever become ready:
    std::size_t eventual = 0;
    std::size_t skip = front_offset_;
    for (const Segment& seg : segments_) {
      eventual += seg.data.size() - skip;
      skip = 0;
    }
    if (writer_closed_ && eventual < n) return false;
    if (!segments_.empty() && segments_.front().ready > now) {
      const TimePoint next = segments_.front().ready;  // copy, as in read()
      cv_.wait_until(lock, next);
    } else if (eventual >= n) {
      // Bytes exist but later segments are not ready yet: wait for the
      // first not-ready segment.
      TimePoint earliest{};
      bool found = false;
      for (const Segment& seg : segments_) {
        if (seg.ready > now) {
          earliest = seg.ready;
          found = true;
          break;
        }
      }
      if (found) {
        cv_.wait_until(lock, earliest);
      } else {
        cv_.wait(lock);
      }
    } else {
      cv_.wait(lock);
    }
  }
}

std::size_t HalfPipe::available() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ready_bytes_locked(std::chrono::steady_clock::now());
}

void HalfPipe::close_writer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    writer_closed_ = true;
  }
  cv_.notify_all();
}

void HalfPipe::close_reader() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reader_closed_ = true;
    segments_.clear();
    front_offset_ = 0;
  }
  cv_.notify_all();
}

std::uint64_t HalfPipe::total_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_written_;
}

std::uint64_t HalfPipe::total_read() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_read_;
}

std::size_t TcpConnection::read(std::uint8_t* out, std::size_t max) {
  return in_->read(out, max);
}

Bytes TcpConnection::read_some(std::size_t max) {
  Bytes buf(max);
  std::size_t n = read(buf.data(), max);
  buf.resize(n);
  return buf;
}

void TcpConnection::read_fully(std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    std::size_t r = read(out + got, n - got);
    if (r == 0) {
      throw NetError(NetErrorCode::kConnectionReset,
                     "EOF inside a " + std::to_string(n) + "-byte frame");
    }
    got += r;
  }
}

void TcpConnection::write(BytesView data) {
  out_->write(data);
}

std::size_t TcpConnection::available() const {
  return in_->available();
}

void TcpConnection::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
  }
  out_->close_writer();
  in_->close_reader();
}

bool TcpConnection::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::shared_ptr<TcpConnection> TcpListener::accept() {
  auto conn = backlog_.pop();
  if (!conn) {
    throw NetError(NetErrorCode::kSocketClosed,
                   "accept on closed listener " + to_string(addr_));
  }
  return *conn;
}

std::shared_ptr<TcpConnection> TcpListener::accept_for(Duration timeout) {
  // The tagged pop distinguishes a genuine timeout (listener still open,
  // caller may retry) from closed-and-drained (throw, exactly like the
  // untimed accept).  The old nullopt-for-both protocol misreported a
  // timeout as "closed" whenever close() slipped in between the pop and a
  // separate closed() re-check.
  auto got = backlog_.pop_for(timeout);
  switch (got.status) {
    case QueuePopStatus::kItem:
      return *std::move(got.item);
    case QueuePopStatus::kTimedOut:
      return nullptr;
    case QueuePopStatus::kClosed:
      break;
  }
  throw NetError(NetErrorCode::kSocketClosed,
                 "accept on closed listener " + to_string(addr_));
}

}  // namespace djvu::net
