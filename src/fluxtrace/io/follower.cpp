#include "fluxtrace/io/follower.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "fluxtrace/io/chunk_util.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/metrics.hpp"

namespace fluxtrace::io {

namespace {

// Self-telemetry: what the live follow path commits and what it fights.
struct FollowMetrics {
  obs::Counter& chunks = obs::metrics().counter("io.follow.chunks_consumed");
  obs::Counter& salvaged = obs::metrics().counter("io.follow.chunks_salvaged");
  obs::Counter& torn = obs::metrics().counter("io.follow.chunks_torn");
  obs::Counter& transients = obs::metrics().counter("io.follow.read_transients");
  obs::Counter& resyncs = obs::metrics().counter("io.follow.resyncs");

  static FollowMetrics& get() {
    static FollowMetrics m;
    return m;
  }
};

using detail::peek_u32;

constexpr std::size_t kFileHeaderBytes = 8; // magic + version
constexpr std::size_t kReadGranule = 256u << 10;

} // namespace

const char* to_string(FollowFinish f) {
  switch (f) {
    case FollowFinish::None: return "following";
    case FollowFinish::CleanEof: return "clean-eof";
    case FollowFinish::ProducerDeath: return "producer-death";
    case FollowFinish::SourceFatal: return "source-fatal";
    case FollowFinish::Stopped: return "stopped";
  }
  return "?";
}

// --- FileByteSource -----------------------------------------------------

FileByteSource::FileByteSource(std::string path) : path_(std::move(path)) {}

FileByteSource::~FileByteSource() {
  if (fd_ >= 0) ::close(fd_);
}

bool FileByteSource::ensure_open(ReadStatus& status) {
  if (fd_ >= 0) return true;
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ >= 0) return true;
  // The spool may simply not have been created yet — that is the normal
  // startup race when the follower launches before the writer.
  status = (errno == ENOENT || errno == EINTR || errno == EAGAIN)
               ? ReadStatus::Transient
               : ReadStatus::Fatal;
  return false;
}

ByteSource::SizeResult FileByteSource::size() {
  SizeResult r;
  if (!ensure_open(r.status)) return r;
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    r.status = (errno == EINTR || errno == EAGAIN || errno == EIO)
                   ? ReadStatus::Transient
                   : ReadStatus::Fatal;
    return r;
  }
  r.size = static_cast<std::uint64_t>(st.st_size);
  return r;
}

ByteSource::ReadResult FileByteSource::read_at(std::uint64_t offset, char* dst,
                                               std::size_t len) {
  ReadResult r;
  if (!ensure_open(r.status)) return r;
  const ssize_t n =
      ::pread(fd_, dst, len, static_cast<off_t>(offset));
  if (n < 0) {
    r.status = (errno == EINTR || errno == EAGAIN || errno == EIO)
                   ? ReadStatus::Transient
                   : ReadStatus::Fatal;
    return r;
  }
  r.n = static_cast<std::size_t>(n);
  return r;
}

// --- FaultableByteSource ------------------------------------------------

ByteSource::SizeResult FaultableByteSource::size() {
  SizeResult r = inner_->size();
  if (r.status == ReadStatus::Ok && size_stale_ && size_stale_()) {
    r.size = std::min(r.size, truncate_at_);
  }
  return r;
}

ByteSource::ReadResult FaultableByteSource::read_at(std::uint64_t offset,
                                                    char* dst,
                                                    std::size_t len) {
  ReadFault f = ReadFault::None;
  if (read_fault_) f = read_fault_();
  if (f == ReadFault::Transient) {
    return ReadResult{ReadStatus::Transient, 0};
  }
  if (f == ReadFault::Short && len > 1) len /= 2;
  return inner_->read_at(offset, dst, len);
}

// --- TraceFollower ------------------------------------------------------

TraceFollower::TraceFollower(TraceFollowerConfig cfg,
                             std::unique_ptr<ByteSource> source)
    : cfg_(cfg), source_(std::move(source)) {
  if (cfg_.max_read_attempts == 0) cfg_.max_read_attempts = 1;
  if (cfg_.max_bytes_per_poll == 0) cfg_.max_bytes_per_poll = kReadGranule;
}

TraceFollower TraceFollower::open(const std::string& path,
                                  TraceFollowerConfig cfg) {
  return TraceFollower(cfg, std::make_unique<FileByteSource>(path));
}

std::uint64_t TraceFollower::backoff_delay() {
  const std::uint32_t shift = std::min(attempts_, 20u);
  const std::uint64_t d = cfg_.backoff_base_ns << shift;
  return std::min(std::max(d, cfg_.backoff_base_ns), cfg_.backoff_cap_ns);
}

void TraceFollower::note_progress(std::uint64_t now_ns) {
  progress_at_ns_ = now_ns;
}

void TraceFollower::drop_consumed_prefix() {
  if (parse_at_ == 0) return;
  buf_.erase(0, parse_at_);
  buf_pos_ += parse_at_;
  parse_at_ = 0;
}

bool TraceFollower::ingest(std::uint64_t now_ns, std::uint64_t durable_size,
                           PollResult& out) {
  std::size_t budget = cfg_.max_bytes_per_poll;
  std::uint32_t tries = 0;
  while (read_pos_ < durable_size && budget > 0) {
    const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
        std::min<std::uint64_t>(durable_size - read_pos_, budget),
        kReadGranule));
    const std::size_t old = buf_.size();
    buf_.resize(old + want);
    const ByteSource::ReadResult r =
        source_->read_at(read_pos_, buf_.data() + old, want);
    if (r.status == ReadStatus::Transient) {
      buf_.resize(old);
      ++stats_.read_transients;
      FollowMetrics::get().transients.inc();
      if (++tries >= cfg_.max_read_attempts) {
        ++attempts_;
        const std::uint64_t d = backoff_delay();
        stats_.backoff_ns += d;
        retry_at_ns_ = now_ns + d;
        return false;
      }
      continue;
    }
    if (r.status == ReadStatus::Fatal) {
      buf_.resize(old);
      finish_with_salvage(FollowFinish::SourceFatal, out);
      return false;
    }
    buf_.resize(old + r.n);
    if (r.n == 0) break; // visible size lied (stale metadata): not yet
    if (r.n < want) ++stats_.short_reads;
    read_pos_ += r.n;
    budget -= r.n;
    attempts_ = 0;
    retry_at_ns_ = 0;
    out.progressed = true;
  }
  return true;
}

void TraceFollower::parse_committed(std::uint64_t now_ns, PollResult& out) {
  const bool finishing = out.finished || finish_ != FollowFinish::None;
  (void)now_ns;

  // File header first: 8 bytes of magic + version, or "not yet".
  if (!stats_.header_seen) {
    if (buf_.size() < kFileHeaderBytes) return;
    if (peek_u32(buf_, 0) != kTraceMagic ||
        (peek_u32(buf_, 4) != kTraceVersion2 &&
         peek_u32(buf_, 4) != kTraceVersion3)) {
      // Not a chunked spool at all — nothing here will ever frame-align.
      if (!finishing) finish_with_salvage(FollowFinish::SourceFatal, out);
      return;
    }
    stats_.header_seen = true;
    parse_at_ = kFileHeaderBytes;
    stats_.bytes_consumed += kFileHeaderBytes;
    out.progressed = true;
  }

  const std::string_view v(buf_);
  while (!stats_.eof_seen) {
    const std::size_t avail = v.size() - parse_at_;
    const detail::Frame f = detail::parse_frame(v, parse_at_);
    if (f.status == detail::FrameStatus::Torn) break; // torn tail: not yet

    if (f.status == detail::FrameStatus::BadHeader) {
      // A frame header that stays invalid while the file keeps growing
      // past it is damage, not a tail. Resynchronize at the next chunk
      // magic, exactly like salvage_trace; within the slack window it is
      // still "not yet".
      if (!finishing && avail < cfg_.resync_after_bytes) break;
      const std::size_t next = buf_.find("CHNK", parse_at_ + 1, 4);
      ++stats_.resyncs;
      ++stats_.chunks_observed;
      ++stats_.chunks_torn;
      FollowMetrics::get().resyncs.inc();
      FollowMetrics::get().torn.inc();
      if (next == std::string::npos) {
        stats_.bytes_skipped += avail;
        parse_at_ = v.size();
        break;
      }
      stats_.bytes_skipped += next - parse_at_;
      parse_at_ = next;
      continue;
    }

    if (f.is_eof()) {
      stats_.eof_seen = true;
      stats_.bytes_consumed += f.bytes();
      parse_at_ += f.bytes();
      out.progressed = true;
      break;
    }
    const std::size_t m0 = out.data.markers.size();
    const std::size_t s0 = out.data.samples.size();
    const std::size_t w0 = out.data.wait_edges.size();
    if (f.payload_intact() &&
        detail::decode_chunk_payload(f.type, f.payload, f.n_records,
                                     out.data)) {
      ++stats_.chunks_observed;
      if (finishing) {
        ++stats_.chunks_salvaged;
        out.salvage = true;
        FollowMetrics::get().salvaged.inc();
      } else {
        ++stats_.chunks_consumed;
        FollowMetrics::get().chunks.inc();
      }
      stats_.records_markers += out.data.markers.size() - m0;
      stats_.records_samples += out.data.samples.size() - s0;
      stats_.records_wait_edges += out.data.wait_edges.size() - w0;
      stats_.bytes_consumed += f.bytes();
      ++out.chunks;
      out.progressed = true;
      parse_at_ += f.bytes();
      continue;
    }
    // Valid header, damaged payload/records, an unknown chunk type or a
    // malformed eof sentinel: the frame is fully present, so waiting
    // cannot heal it (appends never rewrite). Skip it whole.
    ++stats_.chunks_observed;
    ++stats_.chunks_torn;
    ++stats_.resyncs;
    stats_.bytes_skipped += f.bytes();
    FollowMetrics::get().torn.inc();
    FollowMetrics::get().resyncs.inc();
    parse_at_ += f.bytes();
  }
  drop_consumed_prefix();
}

void TraceFollower::finish_with_salvage(FollowFinish reason, PollResult& out) {
  if (finish_ != FollowFinish::None) return;
  finish_ = reason;
  out.finished = true;

  // Best-effort final drain: pick up anything the producer managed to
  // make durable before dying (bounded attempts; failures are final).
  if (reason != FollowFinish::SourceFatal) {
    for (std::uint32_t t = 0; t < cfg_.max_read_attempts; ++t) {
      const ByteSource::SizeResult sz = source_->size();
      if (sz.status == ReadStatus::Transient) {
        ++stats_.read_transients;
        continue;
      }
      if (sz.status != ReadStatus::Ok || sz.size <= read_pos_) break;
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(sz.size - read_pos_, kReadGranule));
      const std::size_t old = buf_.size();
      buf_.resize(old + want);
      const ByteSource::ReadResult r =
          source_->read_at(read_pos_, buf_.data() + old, want);
      if (r.status != ReadStatus::Ok) {
        buf_.resize(old);
        if (r.status == ReadStatus::Transient) {
          ++stats_.read_transients;
          continue;
        }
        break;
      }
      buf_.resize(old + r.n);
      if (r.n == 0) break;
      read_pos_ += r.n;
    }
  }

  // Final pass: complete valid frames are salvaged, the leftover is the
  // torn tail the writer never committed.
  parse_committed(0, out);
  const std::size_t leftover = buf_.size() - parse_at_;
  if (leftover > 0) {
    stats_.bytes_torn += leftover;
    if (stats_.header_seen) {
      // The tail is a partial chunk frame — the mid-chunk kill the
      // ledger must attribute as exactly one torn chunk.
      ++stats_.chunks_observed;
      ++stats_.chunks_torn;
      FollowMetrics::get().torn.inc();
    }
  }
  buf_.clear();
  parse_at_ = 0;
}

TraceFollower::PollResult TraceFollower::poll(std::uint64_t now_ns) {
  PollResult out;
  if (finished()) {
    out.finished = true;
    return out;
  }
  ++stats_.polls;
  if (!clock_seen_) {
    clock_seen_ = true;
    progress_at_ns_ = now_ns;
  }

  if (now_ns >= retry_at_ns_) {
    // Size query, with bounded in-poll retries on transient failure.
    ByteSource::SizeResult sz;
    std::uint32_t tries = 0;
    for (;;) {
      sz = source_->size();
      if (sz.status != ReadStatus::Transient) break;
      ++stats_.read_transients;
      FollowMetrics::get().transients.inc();
      if (++tries >= cfg_.max_read_attempts) break;
    }
    if (sz.status == ReadStatus::Fatal) {
      finish_with_salvage(FollowFinish::SourceFatal, out);
      return out;
    }
    if (sz.status == ReadStatus::Transient) {
      ++attempts_;
      const std::uint64_t d = backoff_delay();
      stats_.backoff_ns += d;
      retry_at_ns_ = now_ns + d;
    } else {
      if (sz.size > read_pos_) {
        if (!ingest(now_ns, sz.size, out)) {
          if (finished()) return out;
        }
      }
      parse_committed(now_ns, out);
      if (finished()) return out;
      if (stats_.eof_seen) {
        finish_with_salvage(FollowFinish::CleanEof, out);
        return out;
      }
    }
  }

  if (out.progressed) {
    note_progress(now_ns);
  } else if (now_ns - progress_at_ns_ >= cfg_.liveness_timeout_ns) {
    if (cfg_.producer_alive && cfg_.producer_alive()) {
      // The probe vouches for the writer: it is alive but idle. Restart
      // the watchdog window instead of declaring death.
      note_progress(now_ns);
    } else {
      finish_with_salvage(FollowFinish::ProducerDeath, out);
    }
  }
  return out;
}

TraceFollower::PollResult TraceFollower::stop(std::uint64_t now_ns) {
  PollResult out;
  (void)now_ns;
  if (finished()) {
    out.finished = true;
    return out;
  }
  finish_with_salvage(FollowFinish::Stopped, out);
  return out;
}

} // namespace fluxtrace::io
