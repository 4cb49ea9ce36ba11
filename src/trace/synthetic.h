// Synthetic workload generator.
//
// Substitute for the MSR Cambridge / VDI traces evaluated in the paper
// (see DESIGN.md §1). The generator is built around the paper's two key
// observations:
//   O1  pages written by *small* requests receive the large majority of
//       cache hits while occupying little space;
//   O2  pages written by *large* requests are rarely re-accessed but fill
//       most of the cache.
//
// It therefore draws from two request classes:
//   * a HOT class of small extents whose popularity follows a Zipf law —
//     the same extent is re-written/re-read with the same address and size,
//     which is what gives request blocks their reuse;
//   * a COLD class of large sequential writes issued by a set of append
//     streams, occasionally re-writing their previous extent.
//
// All randomness flows through one deterministic xoshiro stream, so a
// (profile, seed) pair always produces the identical trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/io_request.h"
#include "util/knobs.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace reqblock {

struct WorkloadProfile {
  std::string name = "synthetic";
  std::uint64_t total_requests = 100000;
  std::uint64_t seed = 1;

  /// Fraction of requests that are writes.
  double write_ratio = 0.5;

  // --- Address space layout (units: pages) ---------------------------------
  /// Number of distinct hot extents (small-request working set).
  std::uint64_t hot_extents = 8192;
  /// Slot width reserved per hot extent; extent size never exceeds this.
  std::uint32_t hot_slot_pages = 8;
  /// Address stride between hot extents (0 = hot_slot_pages, i.e. packed).
  /// Real traces scatter small hot requests sparsely — roughly one per
  /// 64-page flash block (the paper's Fig. 12 implies ~1.8 cached pages
  /// per BPLRU block node) — so profiles use a 64-page stride; packed
  /// layouts would hand block-granularity schemes free spatial wins.
  std::uint32_t hot_slot_stride = 0;
  /// Pages of cold space owned by each sequential stream.
  std::uint64_t cold_stream_pages = 1 << 20;

  // --- Write mix ------------------------------------------------------------
  /// Probability that a write is a large (cold/sequential) request.
  double large_write_fraction = 0.15;
  /// Mean of the small-write size (1 + exponential, clamped to slot width).
  double small_write_mean_pages = 2.0;
  /// Probability that a hot extent is "medium" sized — uniform in
  /// [5, hot_slot_pages] instead of the exponential draw. Medium extents
  /// are hot data that request-size classifiers (VBBMS) mistake for
  /// sequential traffic; request-granularity schemes handle them
  /// per-request.
  double hot_medium_prob = 0.0;
  /// Probability that a small write is a one-shot cold filler: a short
  /// write to a random spot in the *unused half of a hot slot*, never
  /// re-accessed. Fillers share flash blocks with hot extents, creating
  /// the "hot and cold level of the pages belonging to the same block can
  /// be uneven" situation the paper blames for BPLRU's ts_0 regression —
  /// block-granularity schemes retain the cold pages as long as their hot
  /// neighbours. Requires stride > hot_slot_pages + 1.
  double small_cold_fraction = 0.0;
  /// Large write size range (uniform), in pages.
  std::uint32_t large_write_min_pages = 16;
  std::uint32_t large_write_max_pages = 48;
  /// Zipf skew of hot-extent popularity.
  double hot_zipf_theta = 1.0;
  /// Temporal burstiness: probability that a hot access re-targets one of
  /// the recently touched extents instead of drawing fresh from the Zipf
  /// law. Real block traces show exactly this two-timescale reuse — a
  /// quick first re-hit (bursts) plus long-interval recurrences (Zipf) —
  /// and it is what lets frequency-protecting policies beat pure recency.
  double burst_prob = 0.3;
  /// Size of the recent-extent window the burst component samples from.
  std::uint32_t burst_window = 512;
  /// Probability that a large write re-writes the stream's previous extent
  /// instead of appending (gives large requests *some* reuse, per Fig. 3).
  double stream_rewrite_prob = 0.08;
  /// Number of concurrent append streams.
  std::uint32_t stream_count = 4;

  // --- Reads ------------------------------------------------------------
  /// Probability that a read targets a hot extent (otherwise a cold scan).
  double read_hot_fraction = 0.55;
  /// Probability that a hot read covers only part of the extent.
  double partial_read_prob = 0.3;
  /// Probability that a read targets the *head pages* of a recently issued
  /// large write (headers/metadata re-reads). This reproduces the paper's
  /// Observation 2 — a minority (22-37%) of large-request pages are
  /// re-accessed — and is the pattern the DRL split mechanism exploits.
  double read_large_head_fraction = 0.0;
  /// How many head pages of a large extent stay hot.
  std::uint32_t large_head_pages = 3;
  /// How many recent large writes remain re-readable.
  std::uint32_t large_recent_window = 256;
  /// Probability that a head re-read targets one of the most recent 64
  /// large writes (the rest draw uniformly over the whole window). The
  /// early read seeds the hot head while the write data is still buffered;
  /// later reads spread far beyond any recency-based residence.
  double large_head_recency_bias = 0.5;
  /// Model the cold stream regions as pre-conditioned: cold scans sample
  /// the whole region (data "written before the trace"), not just the
  /// prefix appended in-trace. Matches how block traces are captured from
  /// live devices.
  bool preexisting_cold_data = false;

  // --- Arrival process ----------------------------------------------------
  /// Mean exponential interarrival gap.
  SimTime mean_interarrival_ns = 2 * kMillisecond;
  /// Open-loop burst modulation of the arrival process: every
  /// `burst_arrival_period` requests, the first `burst_arrival_len` arrive
  /// with the mean gap divided by `burst_arrival_factor` (an arrival-rate
  /// spike), and the remainder of the period arrives with the gap
  /// multiplied by `burst_idle_factor` (an idle gap for the device to
  /// drain into). The phase is a pure function of the request index, so
  /// the modulation checkpoints for free. burst_arrival_period == 0 or
  /// burst_arrival_len == 0 disables (pure Poisson arrivals).
  std::uint64_t burst_arrival_len = 0;
  std::uint64_t burst_arrival_period = 0;
  double burst_arrival_factor = 8.0;
  double burst_idle_factor = 1.0;

  // --- Workload drift (long-horizon soaks) ---------------------------------
  /// Hot-set rotation: every `drift_period` requests the mapping from Zipf
  /// popularity rank to extent identity shifts by `drift_step`, so the
  /// working set slowly migrates across the address space the way real
  /// workloads drift over days. Like the burst phase, the rotation offset
  /// is a pure function of the request index — it checkpoints for free.
  /// drift_period == 0 disables.
  std::uint64_t drift_period = 0;
  std::uint64_t drift_step = 1;
  /// Diurnal load cycle: the mean arrival gap is modulated by a triangle
  /// wave of relative amplitude `diurnal_amplitude` (in [0, 1)) over
  /// `diurnal_period` requests — peak load at the cycle start, trough at
  /// the midpoint. Integer/double arithmetic only (no transcendentals),
  /// phase from the request index. diurnal_period == 0 disables.
  std::uint64_t diurnal_period = 0;
  double diurnal_amplitude = 0.5;

  /// Returns a copy with the request count scaled by `factor` (>0).
  WorkloadProfile scaled(double factor) const;

  /// Returns a copy capped at `max_requests` (0 = unchanged).
  WorkloadProfile capped(std::uint64_t max_requests) const;

  /// True when the arrival process alternates spike and idle phases.
  bool burst_arrivals_enabled() const {
    return burst_arrival_period > 0 && burst_arrival_len > 0;
  }
  /// True when the hot set rotates over the run.
  bool drift_enabled() const { return drift_period > 0 && drift_step > 0; }
  /// True when the arrival rate follows the diurnal cycle.
  bool diurnal_enabled() const {
    return diurnal_period > 0 && diurnal_amplitude > 0.0;
  }
  /// Effective stride between hot extents.
  std::uint32_t stride_pages() const {
    return hot_slot_stride == 0 ? hot_slot_pages : hot_slot_stride;
  }
  /// First page of the hot region (hot region starts at page 0).
  std::uint64_t hot_region_pages() const {
    return hot_extents * stride_pages();
  }
  /// Total logical footprint in pages (hot + all streams).
  std::uint64_t footprint_pages() const {
    return hot_region_pages() + cold_stream_pages * stream_count;
  }

  /// Expected mean write size in pages given the mix parameters.
  double expected_write_pages() const;
};

/// The burst-arrival and drift knobs the replay drivers expose as flags
/// (src/util/knobs.h). Flag-only: the trace's identity_hash already covers
/// every profile field, so this table feeds no config fingerprint.
inline constexpr auto kWorkloadShapeKnobs = std::tuple{
    Knob{"burst-len", REQB_KNOB_FIELD(burst_arrival_len), kInteger},
    Knob{"burst-period", REQB_KNOB_FIELD(burst_arrival_period), kInteger},
    Knob{"burst-factor", REQB_KNOB_FIELD(burst_arrival_factor), kNumber},
    Knob{"burst-idle", REQB_KNOB_FIELD(burst_idle_factor), kNumber},
    Knob{"drift-period", REQB_KNOB_FIELD(drift_period), kInteger},
    Knob{"drift-step", REQB_KNOB_FIELD(drift_step), kInteger},
    Knob{"diurnal-period", REQB_KNOB_FIELD(diurnal_period), kInteger},
    Knob{"diurnal-amplitude", REQB_KNOB_FIELD(diurnal_amplitude),
         kNumber, kProbability},
};

/// Streaming generator implementing TraceSource.
class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(WorkloadProfile profile);

  bool next(IoRequest& out) override;
  void reset() override;
  std::string name() const override { return profile_.name; }
  std::vector<std::pair<Lpn, Lpn>> preexisting_ranges() const override;

  /// Hash over every profile field: two sources agree iff they generate
  /// the identical request stream.
  std::uint64_t identity_hash() const override;

  /// Checkpoint all generator state (RNG, clock, stream cursors, burst and
  /// large-write windows) so a restored source continues the stream.
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

  const WorkloadProfile& profile() const { return profile_; }

  /// Materializes the full trace (convenience for tests/stats).
  std::vector<IoRequest> collect();

 private:
  struct HotExtent {
    Lpn lpn;
    std::uint32_t pages;
  };

  HotExtent hot_extent(std::uint64_t extent_id) const;
  /// Hot-set rotation offset for the request being generated (a pure
  /// function of the request index; 0 while drift is off).
  std::uint64_t drift_offset() const;
  /// Diurnal gap multiplier for request `id` (1.0 while the cycle is off).
  double diurnal_multiplier(std::uint64_t id) const;
  /// Two-timescale popularity draw: burst window or Zipf tail. Only
  /// writes (`record`) enter the window.
  std::uint64_t sample_hot_id(bool record);
  IoRequest make_small_write(std::uint64_t id, SimTime at);
  IoRequest make_large_write(std::uint64_t id, SimTime at);
  IoRequest make_read(std::uint64_t id, SimTime at);

  WorkloadProfile profile_;
  ZipfSampler hot_sampler_;
  Rng rng_;
  std::uint64_t emitted_ = 0;
  SimTime clock_ = 0;

  struct Stream {
    Lpn base = 0;
    Lpn cursor = 0;        // next append position (relative to base)
    Lpn last_lpn = 0;      // previous extent, for rewrites
    std::uint32_t last_pages = 0;
  };
  std::vector<Stream> streams_;
  /// Ring buffer of recently accessed hot extent ids (burst window).
  std::vector<std::uint64_t> recent_;
  std::size_t recent_pos_ = 0;
  /// Ring buffer of recent large-write extents (for head re-reads).
  struct LargeExtent {
    Lpn lpn;
    std::uint32_t pages;
  };
  std::vector<LargeExtent> recent_large_;
  std::size_t recent_large_pos_ = 0;
};

}  // namespace reqblock
