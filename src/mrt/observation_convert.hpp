// Streaming MRT -> Observation conversion: the archive import hot path.
//
// Archived control-plane history (RouteViews / RIPE RIS windows) arrives
// as MRT files; replaying it through ARTEMIS at line rate needs a
// decoder that does NOT materialize intermediate vectors per record.
// ObservationConverter is the one MRT decoder: archive imports, HTTP
// ingest, the simulated archive feeds (feeds::BatchFeed) and offline
// trace analysis all read MRT through it. It walks one MRT byte stream
// record by record, decodes BGP4MP updates (2- and 4-byte AS flavors,
// AS4_PATH merged) and TABLE_DUMP_V2 RIB snapshots (IPv4 + IPv6)
// directly into recycled slots of an internal ObservationBatch, and
// hands full batches to any ObservationBatchHandler — a JournalWriter
// tap, a MonitorHub inlet, a bare ShardedDetector. Steady state (sources
// interned, batch and scratch buffers at their high-water capacity) the
// converter performs zero heap allocations per record
// (tests/detection_alloc_test.cpp enforces this through the writer tap).
//
// Timestamps are synthesized monotone: MRT header timestamps drive a
// non-decreasing import clock (archives interleave collector shards, so
// raw headers can step backwards), `event_time` is the clamped header
// time and `delivered_at` trails it by a configurable lag. The clock
// persists across files, so a multi-file window imports as one
// contiguous, monotone history.
//
// Truncation contract: a file that ends mid-record (the classic
// interrupted-download shape) converts every complete record before the
// tear and reports `truncated` instead of throwing; a malformed interior
// record stops the file at the previous record boundary and reports
// `error`. Either way every emitted batch ends on a record boundary, so
// an importer feeding a JournalWriter always leaves a clean, readable
// journal — never a torn segment.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "feeds/observation.hpp"
#include "journal/writer.hpp"
#include "json/json.hpp"
#include "mrt/mrt.hpp"
#include "pipeline/observation_batch.hpp"

namespace artemis::mrt {

enum class ImportSourceScheme : std::uint8_t {
  /// One interned source per collector peer: "<prefix>:AS<peer-asn>".
  /// Per-source stats and detection first-seen times then resolve per
  /// vantage session, like a live multi-feed deployment.
  kPerCollectorPeer,
  /// Every observation carries "<prefix>" verbatim (one merged source).
  kSingle,
};

struct ObservationConvertOptions {
  std::string source_prefix = "mrt";
  ImportSourceScheme source_scheme = ImportSourceScheme::kPerCollectorPeer;
  /// delivered_at = event_time + delivery_lag. Archive imports default to
  /// zero lag: the journal then replays at recorded event pacing.
  SimDuration delivery_lag = SimDuration::seconds(0);
  /// Emit threshold: batches flush to the sink once they reach this many
  /// observations (always at a record boundary, so the last batch of a
  /// file may be short and a huge record may overshoot).
  std::size_t batch_capacity = 4096;
};

struct ConvertFileStats {
  std::uint64_t records = 0;       ///< complete MRT records converted
  std::uint64_t observations = 0;  ///< observations emitted for this file
  std::uint64_t bytes_consumed = 0;  ///< bytes of complete records
  /// Complete records skipped whole for shapes we recognize but do not
  /// model (AS_SET path segments, exotic MP AFI/SAFIs). The file keeps
  /// converting at the next record — real archives sprinkle a handful of
  /// AS_SET updates through an otherwise clean window.
  std::uint64_t skipped_records = 0;
  bool truncated = false;  ///< file ended mid-record (clean partial stop)
  std::string error;       ///< non-empty: malformed record stopped the file

  bool clean() const { return !truncated && error.empty(); }
};

class ObservationConverter {
 public:
  explicit ObservationConverter(ObservationConvertOptions options = {});

  ObservationConverter(const ObservationConverter&) = delete;
  ObservationConverter& operator=(const ObservationConverter&) = delete;

  /// Streams one MRT file's bytes into `sink` (called once per full
  /// batch, plus once for the final partial batch). Cross-file state —
  /// the monotone import clock, the interned source table — persists;
  /// the TABLE_DUMP_V2 peer index resets per file, as the format
  /// requires. Never throws on truncated input (see ConvertFileStats).
  /// Equivalent to begin_file() + feed(data) + finish_file().
  ConvertFileStats convert_file(std::span<const std::uint8_t> data,
                                const feeds::ObservationBatchHandler& sink);

  /// Chunked variant for sources that cannot hand over one contiguous
  /// span — a streaming gzip/bz2 decompressor most of all. Records may
  /// straddle chunk boundaries arbitrarily: complete records convert
  /// in place (zero copy), the partial tail is carried into the next
  /// feed(). The truncation contract is per *file*: finish_file()
  /// reports a leftover partial record as `truncated`. After a hard
  /// decode error the rest of the file is swallowed cheaply.
  void begin_file();
  void feed(std::span<const std::uint8_t> chunk,
            const feeds::ObservationBatchHandler& sink);
  ConvertFileStats finish_file(const feeds::ObservationBatchHandler& sink);

  std::uint64_t observations_emitted() const { return emitted_; }
  std::size_t source_table_size() const { return sources_.size(); }
  /// Current value of the monotone import clock (microseconds).
  std::int64_t clock_us() const { return clock_us_; }
  /// Restores the import clock from a persisted ingest cursor, so a
  /// supervisor restarted mid-window clamps timestamps exactly as the
  /// uninterrupted run would have. Ratchets: the clock never goes back.
  void restore_clock(std::int64_t clock_us) {
    if (clock_us > clock_us_) clock_us_ = clock_us;
  }

 private:
  struct PeerSource {
    bgp::Asn peer = bgp::kNoAsn;
    std::string name;
  };

  /// Interned source name for a collector peer (kSingle: the prefix).
  const std::string& source_for(bgp::Asn peer);
  /// Appends one observation slot with the shared per-record fields set.
  feeds::Observation& slot(feeds::ObservationType type, bgp::Asn peer,
                           std::int64_t event_us);
  void flush(const feeds::ObservationBatchHandler& sink);

  /// Converts one complete record (`total` bytes starting at the common
  /// header). Returns false when a hard decode error stopped the file.
  bool process_record(const std::uint8_t* p, std::size_t total,
                      const feeds::ObservationBatchHandler& sink);

  void convert_bgp4mp(ByteReader body, bool as4, std::int64_t event_us);
  void convert_peer_index(ByteReader body);
  void convert_rib(ByteReader body, net::IpFamily family, std::int64_t event_us);

  ObservationConvertOptions options_;
  pipeline::ObservationBatch batch_;
  std::vector<PeerSource> sources_;  ///< sorted by peer ASN
  std::vector<bgp::Asn> peer_table_;
  bgp::PathAttributes scratch_attrs_;
  std::vector<bgp::Asn> hops_scratch_;
  std::vector<bgp::Asn> as4_scratch_;
  MpNlriScratch mp_scratch_;
  std::vector<net::Prefix> withdrawn_scratch_;
  // Per-file chunk state (begin_file .. finish_file).
  ConvertFileStats file_stats_;
  std::vector<std::uint8_t> carry_;  ///< partial record straddling chunks
  bool stopped_ = false;  ///< hard error: swallow the rest of the file
  std::int64_t clock_us_ = 0;
  std::uint64_t emitted_ = 0;
};

/// Aggregate result of importing a list of MRT files into a journal.
struct MrtImportResult {
  std::uint64_t files = 0;            ///< files fully imported
  std::uint64_t truncated_files = 0;  ///< imported up to a torn tail
  std::uint64_t failed_files = 0;     ///< stopped early on a malformed record
  std::uint64_t records = 0;
  std::uint64_t skipped_records = 0;  ///< unsupported shapes skipped whole
  std::uint64_t observations = 0;
  std::uint64_t mrt_bytes = 0;      ///< complete-record MRT bytes consumed
  std::uint64_t journal_bytes = 0;  ///< encoded bytes written to the journal
  std::uint64_t segments = 0;
  /// "path: message" per truncated/failed file, in input order.
  std::vector<std::string> file_errors;
};

/// The mrt2journal core: streams every file through one converter into a
/// JournalWriter on `journal_dir` (created or RESUMED — see
/// JournalWriter) and closes it. Files are imported in argument order;
/// truncated or malformed files contribute their complete records and
/// are tallied, so the resulting journal is always clean and readable.
/// Every file streams through mrt::decompress_file, so gzip'd and
/// bzip2'd files are decompressed transparently (sniffed by magic,
/// O(chunk) memory); a torn compressed stream imports every record
/// recovered before the tear and counts as a truncated file, with the
/// transport's error text in file_errors.
/// Throws journal::JournalError (unwritable dir, foreign journal) or
/// std::runtime_error (unreadable input file).
MrtImportResult import_mrt_files(std::span<const std::string> paths,
                                 const std::string& journal_dir,
                                 const ObservationConvertOptions& options = {},
                                 const journal::JournalWriterOptions& writer_options = {});

/// The machine-readable import summary mrt2journal and
/// `scenario_runner --import-mrt` print (file_errors go to stderr, not
/// here).
json::Value import_result_to_json(const std::string& journal_dir,
                                  const MrtImportResult& result);

}  // namespace artemis::mrt
