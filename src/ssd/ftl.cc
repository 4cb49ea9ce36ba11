#include "ssd/ftl.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

Ftl::Ftl(const SsdConfig& cfg)
    : cfg_(cfg),
      array_(cfg_),
      amap_(array_.address_map()),
      total_planes_(cfg_.total_planes()) {
  channels_.resize(cfg_.channels);
  chips_.resize(cfg_.total_chips());
}

std::uint64_t Ftl::version_of(Lpn lpn) const {
  const std::uint32_t ppn = l2p_.get(lpn);
  return ppn == kUnmapped ? 0 : array_.version_at(ppn);
}

void Ftl::add_preexisting_range(Lpn begin, Lpn end) {
  REQB_CHECK_MSG(begin < end, "empty pre-existing range");
  preexisting_.emplace_back(begin, end);
  std::sort(preexisting_.begin(), preexisting_.end());
}

bool Ftl::in_preexisting(Lpn lpn) const {
  auto it = std::upper_bound(
      preexisting_.begin(), preexisting_.end(), lpn,
      [](Lpn v, const std::pair<Lpn, Lpn>& r) { return v < r.first; });
  if (it == preexisting_.begin()) return false;
  --it;
  return lpn >= it->first && lpn < it->second;
}

Ftl::ReadResult Ftl::read_page(Lpn lpn, SimTime issue, OpAttribution* attr) {
  const ScopedTimer timer(profiler_, Profiler::Section::kFtlRead);
  if (attr != nullptr) *attr = OpAttribution{};  // unmapped path returns early
  const std::uint32_t mapped = l2p_.get(lpn);
  if (mapped == kUnmapped) {
    if (in_preexisting(lpn)) {
      // Pre-conditioned data: full flash-read timing from the plane the
      // page would statically live on, version 0. No physical block
      // exists, so the aging ramps see none of these reads.
      const auto plane = static_cast<std::uint32_t>(total_planes_.mod(lpn));
      const SimTime done =
          flash_read(plane, FlashArray::kNoBlock, 0, lpn, issue, attr);
      return {done, 0, true, false};
    }
    // Reading a never-written page: served by the controller (zero-fill),
    // no flash access.
    ++metrics_.unmapped_reads;
    return {issue + cfg_.cache_access_latency, 0, false, false};
  }
  const Ppn ppn = mapped;
  // An uncorrectable read below drops the mapping and invalidates the
  // page; take the version before the call so the result reports what the
  // host *asked for*.
  const std::uint64_t version = array_.version_at(ppn);
  bool lost = false;
  const PageLoc loc = amap_.locate(ppn);
  const SimTime done =
      flash_read(loc.plane, loc.block, ppn, lpn, issue, attr, &lost);
  if (lost) {
    // read_page is the only host-read entry point and the only path that
    // can go uncorrectable, so this stays exactly equal to the
    // uncorrectable counter — the reconciliation tests check it.
    ++fault_->metrics().integrity.host_reads_lost;
  }
  return {done, version, true, lost};
}

SimTime Ftl::flash_read(std::uint32_t plane, std::uint32_t block, Ppn ppn,
                        Lpn lpn, SimTime issue, OpAttribution* attr,
                        bool* lost) {
  if (attr != nullptr) *attr = OpAttribution{};
  const std::uint32_t chip = amap_.chip_global(plane);
  const std::uint32_t ch = amap_.channel_of_plane(plane);
  // Wear accounting happens before the fault draws so the disturb ramp
  // and the bit-error model see this read; the ramps are pure functions
  // of the counters, so the RNG draws below stay the only source of
  // randomness (one for the injected-fault classes, one for the
  // integrity cascade, each skipped entirely when its subsystem is off).
  double aging_extra = 0.0;
  bool disturb_due = false;
  bool scrub_due = false;
  FlashArray::BlockWear wear;
  SimTime data_age = 0;
  if (block != FlashArray::kNoBlock) {
    array_.note_read(plane, block);
    if (fault_ != nullptr &&
        (fault_->aging().enabled() || fault_->integrity().enabled())) {
      wear = array_.block_wear(plane, block);
      data_age = wear.data_origin > 0 && issue > wear.data_origin
                     ? issue - wear.data_origin
                     : 0;
    }
    if (fault_ != nullptr && fault_->aging().enabled()) {
      aging_extra =
          fault_->aging().read_fail_extra(wear.read_count, data_age);
      disturb_due = fault_->aging().read_disturb_migration_due(wear.read_count);
      scrub_due = !disturb_due && fault_->aging().retention_scrub_due(data_age);
    }
  }
  SimTime cell_done = chips_[chip].acquire(issue, cfg_.read_latency);
  if (fault_ != nullptr && fault_->inject_read_fault(aging_extra)) {
    // Injected read failure (uncorrectable on the first sense): one
    // chip-level re-read before the data crosses the bus.
    const SimTime begin = cell_done;
    cell_done = chips_[chip].acquire(cell_done, cfg_.read_latency);
    if (attr != nullptr) attr->fault = cell_done - begin;
    emit(EventKind::kReadRetry, plane, begin, cell_done - begin, lpn, 0);
  }
  if (block != FlashArray::kNoBlock && fault_ != nullptr &&
      fault_->integrity().enabled()) {
    cell_done = integrity_recover(plane, block, ppn, lpn, wear, data_age,
                                  cell_done, attr, lost);
  }
  const SimTime done =
      channels_[ch].acquire(cell_done, cfg_.page_transfer_time());
  ++metrics_.host_page_reads;
  emit(EventKind::kPageRead, plane, issue, done - issue, lpn, 0);
  if (disturb_due || scrub_due) {
    // Background refresh: the relocation rides the chip timeline after
    // the host read's data is already on the bus, so it delays future
    // operations, not this request.
    reclaim_block(plane, block, done,
                  disturb_due ? EventKind::kReadDisturbMigrate
                              : EventKind::kRetentionScrub);
  }
  return done;
}

SimTime Ftl::integrity_recover(std::uint32_t plane, std::uint32_t block,
                               Ppn ppn, Lpn lpn,
                               const FlashArray::BlockWear& wear,
                               SimTime data_age, SimTime cell_done,
                               OpAttribution* attr, bool* lost) {
  const IntegrityModel::Outcome out =
      fault_->integrity_read_outcome(wear.pe_cycles, wear.read_count,
                                     data_age);
  if (out.tier == IntegrityModel::Tier::kClean) return cell_done;
  const std::uint32_t chip = amap_.chip_global(plane);
  IntegrityMetrics& m = fault_->metrics().integrity;
  if (out.tier == IntegrityModel::Tier::kEccCorrected) {
    // Tier 1: the fast engine rides the sense — no extra chip time.
    emit(EventKind::kEccCorrect, plane, cell_done, 0, lpn,
         array_.note_page_error(ppn));
    return cell_done;
  }
  // Tier 2: escalating re-senses. kRetryCorrected performed out.retry_steps
  // attempts with the last one succeeding; kParity burned the full budget.
  const SimTime recover_begin = cell_done;
  for (std::uint32_t step = 1; step <= out.retry_steps; ++step) {
    const SimTime begin = cell_done;
    cell_done = chips_[chip].acquire(
        cell_done, fault_->integrity().retry_step_cost(step));
    emit(EventKind::kReadRetryStep, plane, begin, cell_done - begin, lpn,
         step);
  }
  if (out.tier == IntegrityModel::Tier::kParity) {
    // Tier 3: RAIN rebuild — read every peer page of the stripe
    // (stripe size - 1 = stripe_pages reads, chip-internal, no bus)
    // through the normal timeline. Only fully-programmed stripes carry
    // parity; open stripes and runs without parity wired fall through
    // to tier 4.
    const std::uint32_t stripe_pages = array_.stripe_pages();
    bool rebuilt = false;
    if (stripe_pages > 0 &&
        array_.stripe_parity_present(plane, block, array_.stripe_of(ppn))) {
      const SimTime begin = cell_done;
      cell_done = chips_[chip].acquire(
          cell_done, static_cast<SimTime>(stripe_pages) * cfg_.read_latency);
      ++m.parity_rebuilds;
      m.parity_peer_reads += stripe_pages;
      array_.note_page_error(ppn);
      emit(EventKind::kParityRebuild, plane, begin, cell_done - begin, lpn,
           stripe_pages);
      rebuilt = true;
    }
    if (!rebuilt) {
      // Tier 4: the data is gone. Drop the mapping so the device stops
      // serving stale bytes (the page's version goes with it); the host
      // sees the loss via ReadResult.
      ++m.uncorrectable;
      const std::uint8_t errs = array_.page_errors(ppn);
      array_.invalidate(ppn);
      l2p_.erase(lpn);
      if (lost != nullptr) *lost = true;
      emit(EventKind::kUncorrectable, plane, cell_done, 0, lpn, errs);
    }
  } else {
    array_.note_page_error(ppn);
  }
  const SimTime recovery = cell_done - recover_begin;
  if (attr != nullptr) attr->fault += recovery;
  m.recovery_time_total += recovery;
  return cell_done;
}

std::uint32_t Ftl::next_plane_rr() {
  return amap_.round_robin_plane(rr_counter_++);
}

std::uint32_t Ftl::pick_write_plane() {
  std::uint32_t plane = next_plane_rr();
  if (fault_ == nullptr) return plane;
  // Under fault injection planes can shrink (retirement past the spare
  // pool). A plane that cannot take more data without starving its GC
  // sheds host writes onto the next candidates; if every plane is
  // saturated the device is genuinely full and the last candidate's
  // allocation check reports it.
  for (std::uint32_t i = 1; i < cfg_.total_planes(); ++i) {
    if (array_.can_accept_page(plane)) return plane;
    plane = next_plane_rr();
  }
  return plane;
}

std::uint32_t Ftl::colocate_channel(Lpn lpn) const {
  const Lpn logical_block = lpn / cfg_.pages_per_block;
  return static_cast<std::uint32_t>(logical_block % cfg_.channels);
}

SimTime Ftl::maybe_close_stripe(std::uint32_t plane, Ppn fresh, SimTime t) {
  if (!array_.closes_stripe(fresh)) return t;
  // One real parity-page program on the chip timeline. The parity page
  // lives in the modeled spare area, so no Ppn is allocated; presence is
  // a pure function of the write pointer (failed program attempts advance
  // it too — parity is XOR over *physical* pages, garbage included).
  const std::uint32_t chip = amap_.chip_global(plane);
  t = chips_[chip].acquire(t, cfg_.program_latency);
  array_.set_stripe_parity(plane, amap_.locate(fresh).block,
                           array_.stripe_of(fresh));
  return t;
}

void Ftl::maybe_collect(std::uint32_t plane, SimTime t) {
  if (!array_.gc_needed(plane)) return;
  const ScopedTimer timer(profiler_, Profiler::Section::kGc);
  const SimTime gc_begin = t;
  std::uint64_t moves = 0;
  emit(EventKind::kGcStart, plane, gc_begin, 0, 0, plane);
  while (array_.gc_needed(plane)) {
    const std::uint32_t victim = array_.pick_gc_victim(plane);
    if (victim == FlashArray::kNoBlock) break;  // nothing reclaimable
    ++metrics_.gc_runs;
    moves += relocate_block(plane, victim, t, /*gc=*/true);
  }
  emit(EventKind::kGcEnd, plane, gc_begin, t - gc_begin, 0, moves);
}

std::uint64_t Ftl::relocate_block(std::uint32_t plane, std::uint32_t block,
                                  SimTime& t, bool gc) {
  const std::uint32_t chip = amap_.chip_global(plane);
  std::uint64_t moved = 0;
  // Move still-valid pages, versions included, within the plane
  // (copyback: chip-internal read + program, no bus transfer), then
  // erase or retire the block.
  array_.for_each_valid_page(
      plane, block, [&](Ppn old, Lpn lpn, std::uint64_t version) {
        const Ppn fresh = array_.program(plane, lpn, version);
        array_.invalidate(old);
        l2p_.set(lpn, static_cast<std::uint32_t>(fresh));
        const SimTime begin = t;
        t = chips_[chip].acquire(t, cfg_.read_latency + cfg_.program_latency);
        array_.note_program(fresh, t);
        t = maybe_close_stripe(plane, fresh, t);
        if (gc) {
          ++metrics_.gc_page_moves;
          emit(EventKind::kGcMove, plane, begin, t - begin, lpn, block);
        }
        ++moved;
      });
  if (fault_ == nullptr || !maybe_retire(plane, block, t)) {
    array_.erase_block(plane, block);
    ++metrics_.erases;
    const SimTime begin = t;
    t = chips_[chip].acquire(t, cfg_.erase_latency);
    note_erase_wear(plane, block, t);
    emit(EventKind::kBlockErase, plane, begin, t - begin, 0, block);
  }
  return moved;
}

SimTime Ftl::program_to_plane(std::uint32_t plane, Lpn lpn,
                              std::uint64_t version, SimTime issue,
                              OpAttribution* attr) {
  const ScopedTimer timer(profiler_, Profiler::Section::kFtlProgram);
  const std::uint32_t chip = amap_.chip_global(plane);
  const std::uint32_t ch = amap_.channel_of_plane(plane);
  // GC runs entirely on the chip timeline (copyback + erase, no bus), so
  // its latency cost to *this* program is exactly how far it pushed the
  // chip's next-free point past where the bus transfer would have left
  // the program waiting anyway.
  const SimTime chip_free_before = chips_[chip].next_free();
  maybe_collect(plane, issue);
  const SimTime chip_free_after = chips_[chip].next_free();

  const SimTime bus_done =
      channels_[ch].acquire(issue, cfg_.page_transfer_time());
  SimTime t = bus_done;
  SimTime first_attempt_done = 0;
  std::uint32_t attempt = 0;
  Ppn fresh = 0;
  for (;;) {
    fresh = array_.program(plane, lpn, version);
    t = chips_[chip].acquire(t, cfg_.program_latency);
    t = maybe_close_stripe(plane, fresh, t);
    if (attempt == 0) first_attempt_done = t;
    // The endurance ramp reads the wear of the block this attempt landed
    // on (retries can land on a different, fresher block).
    const double wear_extra =
        fault_ != nullptr && fault_->aging().enabled()
            ? fault_->aging().program_fail_extra(
                  array_.block_wear(plane, amap_.locate(fresh).block)
                      .pe_cycles)
            : 0.0;
    if (fault_ == nullptr || attempt >= fault_->plan().max_program_retries ||
        !fault_->inject_program_fault(wear_extra)) {
      break;
    }
    // Injected program failure: the attempt burned a page (now garbage)
    // and the chip backs off before retrying. A block that eats the whole
    // retry budget is declared grown-bad and closed, so the final attempt
    // lands on a fresh block and is forced to succeed.
    ++attempt;
    const std::uint32_t failed_block = amap_.locate(fresh).block;
    array_.invalidate(fresh);
    const SimTime backoff_begin = t;
    t = chips_[chip].acquire(t, fault_->program_backoff(chip));
    emit(EventKind::kProgramRetry, plane, backoff_begin, t - backoff_begin,
         lpn, attempt);
    if (attempt >= fault_->plan().max_program_retries) {
      if (array_.mark_bad(plane, failed_block)) {
        ++fault_->metrics().bad_block_marks;
      }
      array_.close_active(plane);
    }
    maybe_collect(plane, t);  // retries burn pages; keep GC honest
  }
  if (fault_ != nullptr) {
    fault_->note_program_success(chip);
    if (array_.plane_degraded(plane)) {
      // Degraded planes pay a controller-side remapping penalty on every
      // program (capacity loss already slows them through extra GC).
      t = chips_[chip].acquire(t, fault_->plan().degraded_program_penalty);
    }
  }
  const SimTime done = t;
  array_.note_program(fresh, done);
  if (attr != nullptr) {
    // gc: the pre-program GC's push of the chip past the bus handoff.
    // fault: everything after the first program attempt completed —
    // backoffs, retry programs (and any GC they trigger), degraded-plane
    // penalty. Both are provably within [issue, done].
    attr->gc = std::max(chip_free_after, bus_done) -
               std::max(chip_free_before, bus_done);
    attr->fault = done - first_attempt_done;
  }

  const std::uint32_t old = l2p_.get(lpn);
  if (old != kUnmapped) array_.invalidate(old);
  l2p_.set(lpn, static_cast<std::uint32_t>(fresh));
  ++metrics_.host_page_writes;
  emit(EventKind::kPageProgram, plane, issue, done - issue, lpn, version);
  return done;
}

bool Ftl::maybe_retire(std::uint32_t plane, std::uint32_t block, SimTime& t) {
  bool want_retire = array_.is_marked_bad(plane, block);
  const double wear_extra =
      fault_->aging().enabled()
          ? fault_->aging().erase_fail_extra(
                array_.block_wear(plane, block).pe_cycles)
          : 0.0;
  if (fault_->inject_erase_fault(wear_extra)) {
    // The failed erase attempt occupies the chip before the controller
    // gives up on the block.
    const SimTime begin = t;
    t = chips_[amap_.chip_global(plane)].acquire(t, cfg_.erase_latency);
    emit(EventKind::kEraseFault, plane, begin, t - begin, 0, block);
    want_retire = true;
  }
  if (!want_retire) return false;
  if (!can_retire_block(plane)) {
    // Keep the block in service (a later erase attempt succeeds) rather
    // than shrink the plane below its GC operating point.
    ++fault_->metrics().retires_refused;
    return false;
  }
  if (array_.retire_block(plane, block)) {
    ++fault_->metrics().degraded_planes;
  }
  ++fault_->metrics().blocks_retired;
  emit(EventKind::kBlockRetire, plane, t, 0, 0, block);
  return true;
}

bool Ftl::can_retire_block(std::uint32_t plane) const {
  // The three retirement guards, in order:
  //   1. spare budget — a reserved spare backfills the loss for free;
  //      without one, retirement permanently shrinks the plane, so
  //   2. occupancy — the shrunk plane must still hold its current valid
  //      data plus the GC operating reserve, and
  //   3. free-list floor — retirement, unlike erase, returns no free
  //      block, while the next victim's copyback (inside a GC burst)
  //      still consumes them.
  return array_.spare_available(plane) ||
         (array_.can_lose_block(plane) && array_.free_blocks(plane) > 2);
}

void Ftl::reclaim_block(std::uint32_t plane, std::uint32_t block, SimTime t,
                        EventKind kind) {
  if (array_.free_blocks(plane) == 0) return;  // defer to a later read
  // The active block can be reclaimed too (a long read-only phase never
  // closes it); the next host program simply opens a fresh one.
  if (array_.is_active(plane, block)) array_.close_active(plane);
  const SimTime begin = t;
  const std::uint64_t moved = relocate_block(plane, block, t, /*gc=*/false);
  FaultMetrics& m = fault_->metrics();
  switch (kind) {
    case EventKind::kReadDisturbMigrate:
      ++m.read_disturb_migrations;
      m.read_disturb_pages_moved += moved;
      break;
    case EventKind::kPatrolScrub:
      ++m.integrity.patrol_scrubs;
      m.integrity.patrol_pages_moved += moved;
      break;
    default:
      ++m.retention_scrubs;
      m.retention_pages_moved += moved;
      break;
  }
  emit(kind, plane, begin, t - begin, block, moved);
}

void Ftl::patrol_scrub(SimTime now) {
  if (fault_ == nullptr || !fault_->integrity().enabled()) return;
  const IntegrityModel& model = fault_->integrity();
  const IntegrityPlan& plan = model.plan();
  if (plan.scrub_rber_threshold <= 0.0 && plan.scrub_error_limit == 0) {
    return;
  }
  const ScopedTimer timer(profiler_, Profiler::Section::kGc);
  IntegrityMetrics& m = fault_->metrics().integrity;
  const std::uint64_t blocks_per_plane = amap_.blocks_per_plane();
  const std::uint64_t total_blocks =
      static_cast<std::uint64_t>(cfg_.total_planes()) * blocks_per_plane;
  // Prediction-only walk: every examined valid page charges one read on
  // its block's chip (the scrubber really senses the data), but never
  // touches the wear counters or the RNG — a pass perturbs timing, not
  // the fault sequence. Block granularity: read count and data age are
  // per block, so one decision covers all of its pages.
  SimTime spent = 0;
  for (std::uint64_t visited = 0;
       visited < total_blocks && spent < plan.scrub_time_budget; ++visited) {
    const std::uint32_t plane = scrub_plane_;
    const std::uint32_t block = scrub_block_;
    if (++scrub_block_ >= blocks_per_plane) {
      scrub_block_ = 0;
      if (++scrub_plane_ >= cfg_.total_planes()) scrub_plane_ = 0;
    }
    const std::uint64_t valid = array_.valid_count(plane, block);
    if (valid == 0) continue;
    const SimTime exam = static_cast<SimTime>(valid) * cfg_.read_latency;
    const std::uint32_t chip = amap_.chip_global(plane);
    const SimTime done = chips_[chip].acquire(now, exam);
    spent += exam;
    m.patrol_pages_examined += valid;
    const FlashArray::BlockWear wear = array_.block_wear(plane, block);
    const SimTime age = wear.data_origin > 0 && now > wear.data_origin
                            ? now - wear.data_origin
                            : 0;
    const double p = model.detect_prob(wear.pe_cycles, wear.read_count, age);
    if (model.scrub_refresh_due(p, array_.max_page_errors(plane, block))) {
      reclaim_block(plane, block, done, EventKind::kPatrolScrub);
    }
  }
}

void Ftl::note_erase_wear(std::uint32_t plane, std::uint32_t block,
                          SimTime t) {
  if (fault_ == nullptr) return;
  const std::uint32_t rated = fault_->plan().aging.rated_pe_cycles;
  if (rated == 0 || array_.block_wear(plane, block).pe_cycles != rated) {
    return;
  }
  ++fault_->metrics().wear_threshold_crossings;
  emit(EventKind::kWearThreshold, plane, t, 0, block, 0);
}

bool Ftl::update_degraded_mode(SimTime now) {
  if (fault_ == nullptr) return degraded_mode_;
  const AgingPlan& plan = fault_->plan().aging;
  const std::uint64_t floor = plan.eol_free_block_floor > 0
                                  ? plan.eol_free_block_floor
                                  : array_.gc_threshold_blocks() + 3;
  std::uint64_t min_reclaimable = ~0ull;
  std::uint32_t worst_plane = 0;
  for (std::uint32_t p = 0; p < cfg_.total_planes(); ++p) {
    const std::uint64_t reclaimable = array_.reclaimable_blocks(p);
    if (reclaimable < min_reclaimable) {
      min_reclaimable = reclaimable;
      worst_plane = p;
    }
  }
  const bool spares_low =
      plan.eol_spare_floor > 0 && array_.spares_total() < plan.eol_spare_floor;
  bool next = degraded_mode_;
  if (!degraded_mode_) {
    if (min_reclaimable < floor || spares_low) next = true;
  } else {
    // Hysteresis: exit needs every plane comfortably above the floor, and
    // the spare trigger is sticky (spares never regrow).
    if (min_reclaimable >= floor + plan.eol_exit_margin && !spares_low) {
      next = false;
    }
  }
  if (next == degraded_mode_) return degraded_mode_;
  degraded_mode_ = next;
  FaultMetrics& m = fault_->metrics();
  if (next) {
    ++m.degraded_mode_enters;
  } else {
    ++m.degraded_mode_exits;
  }
  emit(next ? EventKind::kDegradedModeEnter : EventKind::kDegradedModeExit,
       worst_plane, now, 0, 0, worst_plane);
  return degraded_mode_;
}

std::uint64_t Ftl::gc_pressure_level(std::uint32_t headroom) const {
  const std::uint64_t threshold = array_.gc_threshold_blocks();
  const std::uint64_t target = threshold + headroom;
  std::uint64_t level = 0;
  for (std::uint32_t p = 0; p < cfg_.total_planes(); ++p) {
    const std::uint64_t free = array_.free_blocks(p);
    if (free < target) level = std::max(level, target - free);
  }
  return std::min<std::uint64_t>(level, headroom);
}

void Ftl::set_fault_injector(FaultInjector* injector) {
  fault_ = injector;
  if (fault_ != nullptr && fault_->plan().spare_blocks_per_plane > 0) {
    array_.reserve_spares(fault_->plan().spare_blocks_per_plane);
  }
  if (fault_ != nullptr && fault_->plan().aging.initial_pe_cycles > 0) {
    array_.pre_age(fault_->plan().aging.initial_pe_cycles);
  }
  if (fault_ != nullptr && fault_->plan().integrity.enabled()) {
    array_.set_stripe_pages(fault_->plan().integrity.stripe_pages);
  }
}

void Ftl::set_telemetry(TraceBuffer* trace, Profiler* profiler) {
  trace_ = trace != nullptr && trace->enabled(EventCategory::kFlash)
               ? trace
               : nullptr;
  profiler_ = profiler;
}

void Ftl::register_metrics(MetricsRegistry& registry) const {
  registry.register_counter("flash.host_page_writes",
                            &metrics_.host_page_writes);
  registry.register_counter("flash.host_page_reads",
                            &metrics_.host_page_reads);
  registry.register_counter("flash.gc_runs", &metrics_.gc_runs);
  registry.register_counter("flash.gc_page_moves", &metrics_.gc_page_moves);
  registry.register_counter("flash.erases", &metrics_.erases);
  registry.register_gauge("flash.waf", [this] { return metrics_.waf(); });
  registry.register_gauge("flash.mapped_pages", [this] {
    return static_cast<double>(l2p_.size());
  });
  registry.register_gauge("flash.free_blocks", [this] {
    std::uint64_t total = 0;
    for (std::uint32_t p = 0; p < cfg_.total_planes(); ++p) {
      total += array_.free_blocks(p);
    }
    return static_cast<double>(total);
  });
}

SimTime Ftl::program_page(Lpn lpn, std::uint64_t version, SimTime issue,
                          OpAttribution* attr) {
  return program_to_plane(pick_write_plane(), lpn, version, issue, attr);
}

void Ftl::audit(AuditReport& report) const {
  // L2P ↔ P2L roundtrip: every mapping must land on a valid physical page
  // that names this very LPN. (The page also carries the version, so a
  // mapped LPN cannot lack one.)
  l2p_.for_each([&](Lpn lpn, std::uint32_t ppn) {
    const std::string tag = "lpn " + std::to_string(lpn);
    if (!REQB_AUDIT_MSG(report, array_.state(ppn) == PageState::kValid,
                        tag + " maps to ppn " + std::to_string(ppn) +
                            " which is not valid")) {
      return;
    }
    REQB_AUDIT_MSG(report, array_.lpn_at(ppn) == lpn,
                   tag + " maps to ppn " + std::to_string(ppn) +
                       " which claims lpn " +
                       std::to_string(array_.lpn_at(ppn)));
  });

  // Valid-page accounting: the flash array must hold exactly one valid
  // physical page per mapping (GC moves swap mappings atomically between
  // host operations).
  std::uint64_t valid_total = 0;
  for (std::uint32_t p = 0; p < cfg_.total_planes(); ++p) {
    valid_total += array_.valid_page_count(p);
  }
  REQB_AUDIT_MSG(report, valid_total == l2p_.size(),
                 "flash holds " + std::to_string(valid_total) +
                     " valid pages, mapping table holds " +
                     std::to_string(l2p_.size()));

  // FCFS timelines only ever move forward.
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    REQB_AUDIT_MSG(report, channels_[c].consistent(),
                   "channel " + std::to_string(c) +
                       " timeline not monotonic");
  }
  for (std::uint32_t c = 0; c < chips_.size(); ++c) {
    REQB_AUDIT_MSG(report, chips_[c].consistent(),
                   "chip " + std::to_string(c) + " timeline not monotonic");
  }

  array_.audit(report);
}

SimTime Ftl::program_batch(std::span<const FlushPage> pages, SimTime issue,
                           bool colocate, OpAttribution* attr) {
  REQB_CHECK_MSG(!pages.empty(), "program_batch needs at least one page");
  // Colocated: the whole batch is pinned to one channel, striped over its
  // chips/planes so the channel (not a single chip) is the congested
  // resource.
  const std::uint32_t ch = colocate ? colocate_channel(pages.front().lpn) : 0;
  const std::uint32_t planes_in_channel =
      cfg_.chips_per_channel * cfg_.planes_per_chip;
  std::uint32_t next = 0;
  const auto colocated_plane = [&] {
    std::uint32_t plane = ch * planes_in_channel + (next % planes_in_channel);
    if (fault_ != nullptr) {
      // Same load-shedding as pick_write_plane, restricted to the pinned
      // channel's planes.
      for (std::uint32_t i = 0; i < planes_in_channel; ++i) {
        const std::uint32_t cand =
            ch * planes_in_channel + ((next + i) % planes_in_channel);
        if (array_.can_accept_page(cand)) {
          plane = cand;
          next += i;
          break;
        }
      }
    }
    ++next;
    return plane;
  };
  // Track the critical-path page: the batch's latency is its slowest
  // page's, so the batch-level GC/fault attribution is that page's.
  // Strict `>` keeps the first achiever on ties (deterministic).
  SimTime done = issue;
  OpAttribution critical;
  OpAttribution page_attr;
  for (const auto& p : pages) {
    const std::uint32_t plane =
        colocate ? colocated_plane() : pick_write_plane();
    const SimTime d =
        program_to_plane(plane, p.lpn, p.version, issue, &page_attr);
    if (d > done) {
      done = d;
      critical = page_attr;
    }
  }
  if (attr != nullptr) *attr = critical;
  return done;
}

void FlashMetrics::serialize(SnapshotWriter& w) const {
  w.tag("flash_metrics");
  write_fields(kFlashMetricsFields, *this, w);
}

std::size_t FlashMetrics::snapshot_bytes() const {
  return SnapshotWriter::tag_bytes("flash_metrics") +
         fields_bytes(kFlashMetricsFields, *this);
}

void FlashMetrics::deserialize(SnapshotReader& r) {
  r.tag("flash_metrics");
  read_fields(kFlashMetricsFields, *this, r);
}

std::size_t Ftl::snapshot_bytes() const {
  // The L2P and version tables (16-byte entries, each table after its
  // count), the pre-existing ranges, the cursors, the metrics, the
  // channel and chip timelines, then the flash array.
  return SnapshotWriter::tag_bytes("ftl") + 2 * (8 + 16 * l2p_.size()) + 8 +
         16 * preexisting_.size() + 8 + 1 + 4 + 4 + metrics_.snapshot_bytes() +
         8 + 16 * channels_.size() + 8 + 16 * chips_.size() +
         array_.snapshot_bytes();
}

void Ftl::serialize(SnapshotWriter& w) const {
  w.tag("ftl");
  // The L2P table, then the version table: the versions of the same
  // mapped pages, in the same (ascending LPN) table order.
  w.u64(l2p_.size());
  l2p_.for_each([&](Lpn lpn, std::uint32_t ppn) {
    w.u64(lpn);
    w.u64(ppn);
  });
  // The versions sit on the pages, scattered across the array: they are
  // read a run of mapped pages at a time (FlashArray::versions_at), so the
  // walk overlaps its cache misses instead of waiting on one per LPN.
  w.u64(l2p_.size());
  constexpr std::size_t kRun = FlashArray::kVersionRun;
  std::array<Lpn, kRun> lpns;
  std::array<Ppn, kRun> ppns;
  std::array<std::uint64_t, kRun> versions;
  std::size_t n = 0;
  const auto write_run = [&] {
    array_.versions_at({ppns.data(), n}, {versions.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      w.u64(lpns[i]);
      w.u64(versions[i]);
    }
    n = 0;
  };
  l2p_.for_each([&](Lpn lpn, std::uint32_t ppn) {
    lpns[n] = lpn;
    ppns[n] = ppn;
    if (++n == kRun) write_run();
  });
  if (n > 0) write_run();
  w.u64(preexisting_.size());
  for (const auto& [begin, end] : preexisting_) {
    w.u64(begin);
    w.u64(end);
  }
  w.u64(rr_counter_);
  w.b(degraded_mode_);
  w.u32(scrub_plane_);
  w.u32(scrub_block_);
  metrics_.serialize(w);
  for (const auto* timelines : {&channels_, &chips_}) {
    w.u64(timelines->size());
    for (const auto& tl : *timelines) {
      w.i64(tl.next_free());
      w.i64(tl.busy_time());
    }
  }
  array_.serialize(w);
}

void Ftl::deserialize(SnapshotReader& r) {
  r.tag("ftl");
  REQB_CHECK_MSG(l2p_.empty(), "deserialize into a non-fresh FTL");
  const std::uint64_t mapped = r.count(16);
  // PPNs are range-checked after the patrol-scrub cursor below, so a
  // snapshot taken on another geometry is named by its cursor first.
  std::optional<std::pair<Lpn, Ppn>> outside;
  for (std::uint64_t i = 0; i < mapped; ++i) {
    const Lpn lpn = r.u64();
    const Ppn ppn = r.u64();
    if (lpn > decltype(l2p_)::kMaxLpn) {
      throw SnapshotError("FTL snapshot's L2P table maps lpn " +
                          std::to_string(lpn) +
                          ", beyond the 32-bit logical page space");
    }
    if (l2p_.contains(lpn)) {
      throw SnapshotError("FTL snapshot's L2P table repeats a mapping for "
                          "lpn " + std::to_string(lpn));
    }
    const bool in_range = ppn < cfg_.total_pages();
    if (!in_range && !outside) outside.emplace(lpn, ppn);
    // An out-of-range PPN is held as 0 until that refusal.
    l2p_.set(lpn, in_range ? static_cast<std::uint32_t>(ppn) : 0);
  }
  // The version table must cover exactly the mapped LPNs, in the L2P
  // table's ascending order. The versions go onto their pages once the
  // flash array below is restored.
  const std::uint64_t versioned = r.count(16);
  if (versioned != mapped) {
    throw SnapshotError("FTL snapshot's version table has " +
                        std::to_string(versioned) + " entries for " +
                        std::to_string(mapped) + " L2P mappings");
  }
  std::vector<std::uint64_t> versions;
  versions.reserve(mapped);
  l2p_.for_each([&](Lpn lpn, std::uint32_t /*ppn*/) {
    const Lpn entry = r.u64();
    const std::uint64_t version = r.u64();
    if (entry != lpn) {
      throw SnapshotError(
          l2p_.contains(entry)
              ? "FTL snapshot's version table is missing mapped lpn " +
                    std::to_string(lpn)
              : "FTL snapshot's version table has an orphan entry for "
                "unmapped lpn " + std::to_string(entry));
    }
    versions.push_back(version);
  });
  // The simulator re-registers pre-existing ranges at construction; the
  // checkpointed list replaces them wholesale so both paths agree.
  preexisting_.clear();
  const std::uint64_t ranges = r.count(16);
  preexisting_.reserve(ranges);
  for (std::uint64_t i = 0; i < ranges; ++i) {
    const Lpn begin = r.u64();
    const Lpn end = r.u64();
    preexisting_.emplace_back(begin, end);
  }
  rr_counter_ = r.u64();
  degraded_mode_ = r.b();
  scrub_plane_ = r.u32();
  scrub_block_ = r.u32();
  if (scrub_plane_ >= cfg_.total_planes() ||
      scrub_block_ >= cfg_.blocks_per_plane()) {
    throw SnapshotError("FTL snapshot's patrol-scrub cursor is outside "
                        "the device geometry");
  }
  if (outside) {
    throw SnapshotError("FTL snapshot's L2P table maps lpn " +
                        std::to_string(outside->first) + " to ppn " +
                        std::to_string(outside->second) +
                        ", outside the device geometry");
  }
  metrics_.deserialize(r);
  for (const auto& [timelines, what] :
       {std::pair{&channels_, "channel"}, std::pair{&chips_, "chip"}}) {
    if (r.u64() != timelines->size()) {
      throw SnapshotError(std::string("FTL snapshot has a different ") + what +
                          " count");
    }
    for (auto& tl : *timelines) {
      const SimTime next_free = r.i64();
      const SimTime busy = r.i64();
      tl.restore(next_free, busy);
    }
  }
  array_.deserialize(r);
  // Every mapping must land on a valid page that holds its LPN (the audit's
  // round trip); the versions then go onto those pages.
  std::size_t next = 0;
  l2p_.for_each([&](Lpn lpn, std::uint32_t ppn) {
    if (array_.state(ppn) != PageState::kValid || array_.lpn_at(ppn) != lpn) {
      throw SnapshotError("FTL snapshot's L2P table maps lpn " +
                          std::to_string(lpn) + " to ppn " +
                          std::to_string(ppn) +
                          ", which does not hold that lpn");
    }
    array_.set_version(ppn, versions[next++]);
  });
}

}  // namespace reqblock
