#include "src/core/control_loop.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include <limits>

#include "src/fault/fault_injector.h"
#include "src/obs/prof/profiler.h"
#include "src/sim/table_cache.h"

namespace jockey {

std::string ValidateControlLoopConfig(const ControlLoopConfig& config) {
  if (config.slack < 1.0) return "slack must be >= 1";
  if (config.hysteresis_alpha <= 0.0 || config.hysteresis_alpha > 1.0) {
    return "hysteresis_alpha must be in (0, 1]";
  }
  if (config.dead_zone_seconds < 0.0) return "dead_zone_seconds must be >= 0";
  if (config.prediction_quantile < 0.0 || config.prediction_quantile > 1.0) {
    return "prediction_quantile must be in [0, 1]";
  }
  if (config.min_tokens < 1) return "min_tokens must be >= 1";
  if (config.max_tokens < config.min_tokens) return "max_tokens must be >= min_tokens";
  if (config.correction_ewma <= 0.0 || config.correction_ewma > 1.0) {
    return "correction_ewma must be in (0, 1]";
  }
  if (config.correction_min_speed <= 0.0) return "correction_min_speed must be > 0";
  if (config.correction_max_speed < config.correction_min_speed) {
    return "correction_max_speed must be >= correction_min_speed";
  }
  if (config.correction_warmup_ticks < 0) return "correction_warmup_ticks must be >= 0";
  if (config.stale_hold_seconds < 0.0) return "stale_hold_seconds must be >= 0";
  if (config.blind_escalation_rate <= 0.0 || config.blind_escalation_rate > 1.0) {
    return "blind_escalation_rate must be in (0, 1]";
  }
  if (config.blackout_gap_factor <= 1.0) return "blackout_gap_factor must be > 1";
  if (config.grant_ratio_ewma <= 0.0 || config.grant_ratio_ewma > 1.0) {
    return "grant_ratio_ewma must be in (0, 1]";
  }
  if (config.straggler_rate_ratio <= 0.0 || config.straggler_rate_ratio > 1.0) {
    return "straggler_rate_ratio must be in (0, 1]";
  }
  if (config.straggler_min_ticks < 1) return "straggler_min_ticks must be >= 1";
  if (config.warm_start_tokens < 0) return "warm_start_tokens must be >= 0";
  if (config.control_period_hint_seconds < 0.0) {
    return "control_period_hint_seconds must be >= 0";
  }
  return std::string();
}

namespace {

ControlLoopConfig CheckedConfig(ControlLoopConfig config) {
  const std::string problem = ValidateControlLoopConfig(config);
  if (!problem.empty()) {
    throw std::invalid_argument("ControlLoopConfig: " + problem);
  }
  return config;
}

}  // namespace

JockeyController::JockeyController(std::shared_ptr<const ProgressIndicator> indicator,
                                   std::shared_ptr<const CompletionTable> table,
                                   PiecewiseLinear utility, ControlLoopConfig config)
    : indicator_(std::move(indicator)),
      table_(std::move(table)),
      utility_(std::move(utility)),
      shifted_utility_(utility_.ShiftLeft(config.dead_zone_seconds)),
      config_(CheckedConfig(config)) {
  assert(indicator_ != nullptr);
  assert(table_ != nullptr);
  worst_case_total_ = table_->Predict(0.0, config_.min_tokens, config_.prediction_quantile);
  ApplyWarmStart();
  RekeyCache();
}

JockeyController::JockeyController(std::shared_ptr<const ProgressIndicator> indicator,
                                   std::shared_ptr<const AmdahlModel> amdahl,
                                   PiecewiseLinear utility, ControlLoopConfig config)
    : indicator_(std::move(indicator)),
      amdahl_(std::move(amdahl)),
      utility_(std::move(utility)),
      shifted_utility_(utility_.ShiftLeft(config.dead_zone_seconds)),
      config_(CheckedConfig(config)) {
  assert(indicator_ != nullptr);
  assert(amdahl_ != nullptr);
  worst_case_total_ = amdahl_->PredictTotal(config_.min_tokens);
  ApplyWarmStart();
  RekeyCache();
}

JockeyController::JockeyController(std::shared_ptr<const ProgressIndicator> indicator,
                                   std::shared_ptr<const CompletionTable> table,
                                   std::shared_ptr<const AmdahlModel> amdahl,
                                   PiecewiseLinear utility, ControlLoopConfig config)
    : indicator_(std::move(indicator)),
      table_(std::move(table)),
      amdahl_(std::move(amdahl)),
      utility_(std::move(utility)),
      shifted_utility_(utility_.ShiftLeft(config.dead_zone_seconds)),
      config_(CheckedConfig(config)) {
  assert(indicator_ != nullptr);
  assert(table_ != nullptr || amdahl_ != nullptr);
  worst_case_total_ =
      table_ != nullptr
          ? table_->Predict(0.0, config_.min_tokens, config_.prediction_quantile)
          : amdahl_->PredictTotal(config_.min_tokens);
  ApplyWarmStart();
  RekeyCache();
}

void JockeyController::ApplyWarmStart() {
  if (config_.warm_start_tokens <= 0) {
    return;
  }
  // Seed the smoothed state so the first tick moderates against last run's realized
  // need instead of adopting a cold scan outright.
  smoothed_ = std::clamp(static_cast<double>(config_.warm_start_tokens),
                         static_cast<double>(config_.min_tokens),
                         static_cast<double>(config_.max_tokens));
}

void JockeyController::RekeyCache() {
  if (!config_.enable_decision_cache) {
    return;
  }
  uint64_t h = HashBytes(&config_.slack, sizeof(config_.slack));
  h = HashBytes(&config_.prediction_quantile, sizeof(config_.prediction_quantile), h);
  h = HashBytes(&config_.min_tokens, sizeof(config_.min_tokens), h);
  h = HashBytes(&config_.max_tokens, sizeof(config_.max_tokens), h);
  const char degrade_bits = static_cast<char>((config_.enable_degraded_mode ? 1 : 0) |
                                              (config_.enable_model_correction ? 2 : 0));
  h = HashBytes(&degrade_bits, sizeof(degrade_bits), h);
  for (const auto& knot : shifted_utility_.knots()) {
    h = HashBytes(&knot.first, sizeof(knot.first), h);
    h = HashBytes(&knot.second, sizeof(knot.second), h);
  }
  const int buckets = table_ != nullptr ? table_->num_buckets() : 0;
  h = HashBytes(&buckets, sizeof(buckets), h);
  if (decision_cache_.Rekey(h, buckets, AnalyzePlateau(shifted_utility_)) &&
      cache_invalidations_counter_ != nullptr) {
    ++*cache_invalidations_counter_;
  }
}

double JockeyController::PredictRemaining(double progress,
                                          const std::vector<double>& frac_complete,
                                          double allocation) const {
  double raw;
  if (table_ != nullptr && !(config_.enable_degraded_mode && table_fault_active_)) {
    raw = table_->Predict(progress, allocation, config_.prediction_quantile);
    if (table_fault_active_ && fault_injector_ != nullptr) {
      // A naive controller cannot tell corrupted lookups from real ones; it
      // consumes them silently. The hardened path above never reaches here.
      raw = fault_injector_->CorruptPrediction(tick_now_, raw);
    }
  } else if (amdahl_ != nullptr) {
    // Second rung of the fallback chain: the analytic Amdahl model needs no table.
    raw = amdahl_->PredictRemaining(frac_complete, allocation);
  } else {
    // Last rung: linear scale-down of the worst-case total. Deliberately crude and
    // deliberately pessimistic — it exists so decisions never divide by silence.
    raw = worst_case_total_ * std::max(0.0, 1.0 - progress);
  }
  if (skew_window_ != nullptr && fault_injector_ != nullptr) {
    // A corrupted offline profile skews every rung of the model chain — there is
    // no healthy lookup to detect or fall back to; only the straggler detector
    // (OnTick) can notice that reality disagrees with these predictions.
    raw = fault_injector_->SkewPrediction(*skew_window_, progress, raw);
  }
  if (config_.enable_model_correction && ticks_seen_ >= config_.correction_warmup_ticks) {
    // speed < 1 means model time passes slower than wall clock; inflate accordingly.
    raw /= speed_estimate_;
  }
  return raw;
}

void JockeyController::UpdateModelSpeed(double elapsed, double progress,
                                        const std::vector<double>& frac) {
  if (!config_.enable_model_correction) {
    return;
  }
  // Remaining time under the *uncorrected* model at the previously held allocation;
  // holding the allocation fixed across the two observations cancels the allocation
  // term, isolating how fast model-time actually elapsed.
  if (prev_allocation_ > 0.0 && elapsed > prev_elapsed_ + 1e-9) {
    double now_remaining =
        table_ != nullptr
            ? table_->Predict(progress, prev_allocation_, config_.prediction_quantile)
            : amdahl_->PredictRemaining(frac, prev_allocation_);
    double speed = (prev_remaining_ - now_remaining) / (elapsed - prev_elapsed_);
    speed = std::clamp(speed, config_.correction_min_speed, config_.correction_max_speed);
    speed_estimate_ += config_.correction_ewma * (speed - speed_estimate_);
  }
  ++ticks_seen_;
}

void JockeyController::ObserveGrantRatio(const JobRuntimeStatus& status) {
  if (last_requested_ <= 0) {
    return;
  }
  // What the scheduler actually honored of the previous request. Clamped at 1: a
  // grant above the request (window closed, cluster generous) must not deflate
  // later requests below target.
  const double ratio = std::clamp(
      static_cast<double>(status.guaranteed_tokens) / last_requested_, 0.0, 1.0);
  grant_ratio_ += config_.grant_ratio_ewma * (ratio - grant_ratio_);
  // Floor prevents a total blackout of grants from inflating requests to infinity.
  grant_ratio_ = std::clamp(grant_ratio_, 0.05, 1.0);
}

int JockeyController::RawAllocation(double elapsed, double progress,
                                    const std::vector<double>& frac_complete,
                                    const PiecewiseLinear& shifted_utility) const {
  double best_utility = 0.0;
  int best_allocation = config_.max_tokens;
  bool first = true;
  for (int a = config_.min_tokens; a <= config_.max_tokens; ++a) {
    double predicted = config_.slack * PredictRemaining(progress, frac_complete, a);
    double u = shifted_utility(elapsed + predicted);
    // Strictly-greater keeps the *minimum* allocation among utility maximizers, since
    // we scan allocations in ascending order. A tiny epsilon absorbs interpolation
    // noise so a large allocation must improve utility meaningfully to be chosen.
    if (first || u > best_utility + 1e-9) {
      best_utility = u;
      best_allocation = a;
      first = false;
    }
  }
  return best_allocation;
}

int JockeyController::CachedRawAllocation(double elapsed, double progress,
                                          const std::vector<double>& frac_complete,
                                          const PiecewiseLinear& shifted_utility) {
  const int scan_width = config_.max_tokens - config_.min_tokens + 1;
  if (!config_.enable_decision_cache) {
    last_scan_lookups_ = scan_width;
    return RawAllocation(elapsed, progress, frac_complete, shifted_utility);
  }
  // Cached columns hold *healthy* table lookups; fault windows (corrupted or skewed
  // predictions, time-dependent) and the table-less fallback rungs bypass them.
  const bool eligible =
      table_ != nullptr && !table_fault_active_ && skew_window_ == nullptr;
  if (eligible != cache_eligible_) {
    // Crossing a fault-window boundary in either direction: memoized winners were
    // stored against a different prediction regime, drop them. Columns stay — they
    // are raw table values, untouched by the window.
    if (decision_cache_.InvalidateDecisions() && cache_invalidations_counter_ != nullptr) {
      ++*cache_invalidations_counter_;
    }
    cache_eligible_ = eligible;
  }
  if (!eligible) {
    ++decision_cache_.stats().bypasses;
    last_scan_lookups_ = scan_width;
    return RawAllocation(elapsed, progress, frac_complete, shifted_utility);
  }
  const int bucket = table_->BucketIndex(progress);
  const bool corrected =
      config_.enable_model_correction && ticks_seen_ >= config_.correction_warmup_ticks;
  if (!corrected) {
    // Level 2: the memoized winner, while provably still the scan's answer. Skipped
    // under model correction — a rising speed estimate can revive candidates that
    // lost earlier, which breaks the plateau argument.
    if (const DecisionCache::Decision* hit =
            decision_cache_.FindDecision(bucket, elapsed, config_.slack)) {
      ++decision_cache_.stats().decision_hits;
      if (cache_hits_counter_ != nullptr) {
        ++*cache_hits_counter_;
      }
      last_scan_lookups_ = 0;
      cache_hit_tick_ = true;
      cache_hit_signature_ = decision_cache_.SignatureFor(bucket);
      return hit->raw;
    }
  }
  ++decision_cache_.stats().decision_misses;
  if (cache_misses_counter_ != nullptr) {
    ++*cache_misses_counter_;
  }
  // Level 1: the per-bucket prediction column (Predict depends on progress only
  // through the bucket, so reuse is exact).
  const std::vector<double>* column = decision_cache_.FindColumn(bucket);
  if (column != nullptr) {
    ++decision_cache_.stats().column_hits;
    last_scan_lookups_ = 0;
  } else {
    std::vector<double> fresh(static_cast<size_t>(scan_width));
    table_->PredictRange(progress, config_.min_tokens, config_.max_tokens,
                         config_.prediction_quantile, fresh.data());
    ++decision_cache_.stats().column_misses;
    last_scan_lookups_ = scan_width;
    column = &decision_cache_.StoreColumn(bucket, std::move(fresh));
  }
  // The scan below repeats RawAllocation's arithmetic operation-for-operation on
  // the column, so its result is bit-identical to an uncached tick. Alongside the
  // epsilon-chain winner it tracks the true prefix maximum, which decides whether
  // the winner is memoizable (see decision_cache.h).
  double best_utility = 0.0;
  int best_allocation = config_.max_tokens;
  bool first = true;
  double true_max = -std::numeric_limits<double>::infinity();
  double prefix_at_winner = 0.0;
  bool winner_had_prefix = false;
  double winner_prediction = 0.0;
  for (int a = config_.min_tokens; a <= config_.max_tokens; ++a) {
    const double raw_prediction = (*column)[static_cast<size_t>(a - config_.min_tokens)];
    double adjusted = raw_prediction;
    if (corrected) {
      adjusted /= speed_estimate_;
    }
    double predicted = config_.slack * adjusted;
    double u = shifted_utility(elapsed + predicted);
    if (first || u > best_utility + 1e-9) {
      best_utility = u;
      best_allocation = a;
      winner_prediction = raw_prediction;
      winner_had_prefix = !first;
      prefix_at_winner = true_max;
      first = false;
    }
    true_max = std::max(true_max, u);
  }
  const UtilityPlateau& plateau = decision_cache_.plateau();
  if (!corrected && plateau.usable &&
      best_utility > plateau.max_utility - kPlateauWinnerSlop &&
      (!winner_had_prefix ||
       prefix_at_winner < plateau.max_utility - kPlateauPrefixGuard)) {
    decision_cache_.StoreDecision(
        bucket, DecisionCache::Decision{best_allocation, winner_prediction, elapsed});
  }
  return best_allocation;
}

ControlDecision JockeyController::OnTick(const JobRuntimeStatus& status) {
  // Sub-phases profile as control_tick/{policy_eval{,/predict},realloc}; every
  // guard is a no-op branch while the profiler is disabled (budgeted in profiler_test.cc).
  prof::Scope tick_scope("control_tick");
  if (pending_change_at_ >= 0.0 && status.elapsed_seconds >= pending_change_at_) {
    SetUtility(pending_utility_);
    pending_change_at_ = -1.0;
    observer_.Emit(status.now, UtilityChangeEvent{job_label_, status.elapsed_seconds});
  }

  cache_hit_tick_ = false;
  tick_now_ = status.now;
  table_fault_active_ =
      fault_injector_ != nullptr && fault_injector_->TableFaultActive(status.now);
  skew_window_ =
      fault_injector_ != nullptr ? fault_injector_->ProfileSkewWindow(status.now) : nullptr;
  const bool degraded = config_.enable_degraded_mode;
  bool have_mode = false;
  DegradeMode mode = DegradeMode::kStaleHold;
  double mode_value = 0.0;
  if (degraded) {
    ObserveGrantRatio(status);
  }

  double progress = indicator_->Evaluate(status.frac_complete);
  const PiecewiseLinear& shifted = shifted_utility_;
  int raw;
  bool deadzone_checked = false;
  bool scanned = false;

  prof::Scope policy_scope("policy_eval");
  const bool blind = degraded && !status.report_fresh;
  const bool model_lost = degraded && table_fault_active_ && table_ != nullptr;
  if (blind && status.report_age_seconds <= config_.stale_hold_seconds &&
      smoothed_ >= 0.0) {
    // Brief report dropout: the last decision was made on trustworthy data and the
    // world has not had long to drift — hold it rather than chase a frozen signal.
    raw = static_cast<int>(std::ceil(smoothed_ - 1e-9));
    have_mode = true;
    mode = DegradeMode::kStaleHold;
    mode_value = smoothed_;
  } else if (blind || (model_lost && amdahl_ == nullptr)) {
    // Blind past the threshold (or the model is gone with no fallback): the paper's
    // rule is to be pessimistic under uncertainty. Walk the allocation toward the
    // maximum each tick the outage persists; the dead zone and hysteresis are
    // exactly the moderation we must NOT apply, since they assume trusted inputs.
    if (smoothed_ < 0.0) {
      smoothed_ = std::max(static_cast<double>(config_.min_tokens),
                           static_cast<double>(status.guaranteed_tokens));
    }
    smoothed_ += config_.blind_escalation_rate * (config_.max_tokens - smoothed_);
    raw = config_.max_tokens;
    have_mode = true;
    mode = blind ? DegradeMode::kPessimisticEscalation : DegradeMode::kModelLossEscalation;
    mode_value = smoothed_;
  } else {
    if (!degraded || status.report_fresh) {
      UpdateModelSpeed(status.elapsed_seconds, progress, status.frac_complete);
    }
    if (model_lost && amdahl_ != nullptr) {
      // Table lookups are faulted but the analytic model survives: the scan below
      // runs on the second rung of the fallback chain (see PredictRemaining).
      have_mode = true;
      mode = DegradeMode::kFallbackModel;
    }
    {
      prof::Scope predict_scope("predict");
      raw = CachedRawAllocation(status.elapsed_seconds, progress, status.frac_complete,
                                shifted);
    }
    scanned = true;

    if (smoothed_ < 0.0) {
      // First tick: adopt the raw allocation outright (there is no history to smooth
      // against); this is also the a-priori allocation of "Jockey w/o adaptation".
      smoothed_ = raw;
    } else if (raw > smoothed_) {
      deadzone_checked = true;
      // Dead zone: only chase an increase when the current allocation is predicted to
      // fall short of the best achievable utility, i.e. the job is at least D behind
      // schedule (the utility is already shifted left by D). In degraded mode the
      // "current" prediction uses what the scheduler actually granted, not what we
      // asked for — under a grant shortfall the held allocation is a fiction.
      double current_alloc = smoothed_;
      if (degraded) {
        current_alloc = std::clamp(static_cast<double>(status.guaranteed_tokens),
                                   static_cast<double>(config_.min_tokens), smoothed_);
      }
      double predicted_cur =
          config_.slack * PredictRemaining(progress, status.frac_complete, current_alloc);
      double u_cur = shifted(status.elapsed_seconds + predicted_cur);
      double predicted_raw =
          config_.slack * PredictRemaining(progress, status.frac_complete, raw);
      double u_best = shifted(status.elapsed_seconds + predicted_raw);
      if (u_cur < u_best - 1e-9) {
        smoothed_ += config_.hysteresis_alpha * (raw - smoothed_);
      }
    } else {
      smoothed_ += config_.hysteresis_alpha * (raw - smoothed_);
    }

    if (degraded && last_tick_elapsed_ >= 0.0) {
      // Blackout catch-up: the smallest gap ever observed is the control period; a
      // much larger gap means ticks were skipped. Hysteresis would spread the
      // recovery over many periods — snap to raw instead to make up lost ground.
      const double gap = status.elapsed_seconds - last_tick_elapsed_;
      if (gap > 1e-9 && (min_tick_gap_ < 0.0 || gap < min_tick_gap_)) {
        min_tick_gap_ = gap;
      }
      // A blackout spanning the *first* gap would be learned as the baseline and
      // mask later blackouts of similar size; the known control period, when the
      // harness plumbs it in, caps the learned baseline from above.
      double baseline = min_tick_gap_;
      if (config_.control_period_hint_seconds > 0.0) {
        baseline = baseline < 0.0
                       ? config_.control_period_hint_seconds
                       : std::min(baseline, config_.control_period_hint_seconds);
      }
      if (baseline > 0.0 && gap > config_.blackout_gap_factor * baseline &&
          raw > smoothed_) {
        smoothed_ = raw;
        have_mode = true;
        mode = DegradeMode::kBlackoutCatchup;
        mode_value = raw;
      }
    }

    if (degraded && status.report_fresh && straggler_prev_predicted_ > 1e-9 &&
        status.elapsed_seconds > straggler_prev_elapsed_ + 1e-9) {
      // Straggler detection: the previous tick's prediction implied a progress
      // rate; gray failures (slow-but-alive machines, a skewed offline profile,
      // adversarial load) show up as reality persistently lagging it. Predictions
      // are worst-case-quantile pessimistic, so a healthy run clears this bar with
      // margin — only a model that turned *optimistic* about the actual cluster
      // trips it.
      const double implied_rate =
          std::max(0.0, 1.0 - straggler_prev_progress_) / straggler_prev_predicted_;
      const double realized_rate = (progress - straggler_prev_progress_) /
                                   (status.elapsed_seconds - straggler_prev_elapsed_);
      if (implied_rate > 0.0 &&
          realized_rate < config_.straggler_rate_ratio * implied_rate) {
        ++straggler_ticks_;
      } else {
        straggler_ticks_ = 0;
      }
      if (straggler_ticks_ >= config_.straggler_min_ticks && !have_mode) {
        // The model cannot be trusted to ask for enough; walk toward the maximum
        // like the blind path does, re-checked every tick the lag persists.
        smoothed_ += config_.blind_escalation_rate * (config_.max_tokens - smoothed_);
        have_mode = true;
        mode = DegradeMode::kStragglerEscalation;
        mode_value = realized_rate / implied_rate;
      }
    }
  }
  policy_scope.Close();
  prof::Scope realloc_scope("realloc");
  // Exponential smoothing approaches the raw value asymptotically; snap the final
  // half-token so a steady raw target is actually reached.
  if (std::abs(smoothed_ - raw) < 0.5) {
    smoothed_ = raw;
  }
  smoothed_ = std::clamp(smoothed_, static_cast<double>(config_.min_tokens),
                         static_cast<double>(config_.max_tokens));

  int granted = static_cast<int>(std::ceil(smoothed_ - 1e-9));
  if (degraded && grant_ratio_ < 0.999) {
    // Grant compensation: the scheduler has been shortfalling grants; inflate the
    // request so granted x ratio lands on the target the loop actually chose.
    const int request = std::min(
        config_.max_tokens,
        static_cast<int>(std::ceil(static_cast<double>(granted) / grant_ratio_ - 1e-9)));
    if (request > granted && !have_mode) {
      have_mode = true;
      mode = DegradeMode::kGrantCompensation;
      mode_value = grant_ratio_;
    }
    granted = request;
  }
  last_requested_ = granted;
  last_tick_elapsed_ = status.elapsed_seconds;

  ControlTickLog tick;
  tick.elapsed_seconds = status.elapsed_seconds;
  tick.progress = progress;
  double predicted_remaining = PredictRemaining(progress, status.frac_complete, granted);
  tick.estimated_completion_seconds = status.elapsed_seconds + predicted_remaining;
  if (degraded) {
    if (status.report_fresh) {
      straggler_prev_elapsed_ = status.elapsed_seconds;
      straggler_prev_progress_ = progress;
      straggler_prev_predicted_ = predicted_remaining;
    } else {
      // Blind ticks serve frozen progress; comparing across them would read the
      // freeze itself as a straggler. Re-arm on the next fresh observation.
      straggler_prev_predicted_ = -1.0;
    }
  }
  tick.raw_allocation = raw;
  tick.smoothed_allocation = smoothed_;
  log_.push_back(tick);

  if (observer_.enabled()) {
    if (ticks_counter_ != nullptr) {
      // The candidate scan (when it ran), the dead-zone comparison (when entered)
      // and the log line above all queried the model this tick; count in one shot.
      ++*ticks_counter_;
      // With the decision cache on, last_scan_lookups_ is the number of table
      // lookups the scan actually performed (0 on a column or decision hit); with
      // it off, CachedRawAllocation sets it to the full scan width.
      *lookups_counter_ += (scanned ? last_scan_lookups_ : 0) + 1 +
                           (deadzone_checked ? 2 : 0);
    }
    if (observer_.tracing()) {
      if (cache_hit_tick_) {
        observer_.Emit(status.now,
                       ControlDecisionCachedEvent{job_label_, status.elapsed_seconds,
                                                  progress, raw, cache_hit_signature_});
      }
      observer_.Emit(status.now, PredictionLookupEvent{job_label_, progress,
                                                       static_cast<double>(granted),
                                                       predicted_remaining});
      ControlTickEvent event;
      event.job = job_label_;
      event.elapsed_seconds = status.elapsed_seconds;
      event.progress = progress;
      event.predicted_remaining_seconds = predicted_remaining;
      // The quantity the decision maximized: dead-zone-shifted utility of the
      // slack-adjusted predicted completion at the granted allocation.
      event.utility = shifted(status.elapsed_seconds + config_.slack * predicted_remaining);
      event.raw_allocation = raw;
      event.smoothed_allocation = smoothed_;
      event.granted_tokens = granted;
      event.model_speed = speed_estimate_;
      observer_.Emit(TraceEvent(status.now, event));
      if (skew_window_ != nullptr) {
        // The skew bit on this tick's predictions, for postmortem attribution:
        // detail is the multiplier applied at the current progress decile.
        observer_.Emit(status.now,
                       FaultInjectedEvent{FaultKind::kProfileSkew,
                                          fault_injector_->IndexOf(*skew_window_),
                                          job_label_, skew_window_->magnitude,
                                          fault_injector_->SkewPrediction(
                                              *skew_window_, progress, 1.0),
                                          0.0});
      }
    }
    if (have_mode) {
      if (observer_.tracing()) {
        observer_.Emit(status.now,
                       DegradedDecisionEvent{job_label_, mode, status.elapsed_seconds,
                                             status.report_age_seconds, granted,
                                             mode_value});
      }
      if (observer_.metering()) {
        // Degraded decisions are rare (fault windows only); the string build is off
        // the per-tick fast path.
        observer_.Count(std::string("control.degraded.") + DegradeModeName(mode));
      }
    }
  }
  realloc_scope.Close();

  if (config_.enable_model_correction) {
    // Record the uncorrected remaining estimate at the allocation we are about to
    // hold, for the next tick's speed measurement.
    prev_elapsed_ = status.elapsed_seconds;
    prev_allocation_ = granted;
    prev_remaining_ =
        table_ != nullptr
            ? table_->Predict(progress, granted, config_.prediction_quantile)
            : amdahl_->PredictRemaining(status.frac_complete, granted);
  }

  ControlDecision decision;
  decision.guaranteed_tokens = granted;
  decision.raw_allocation = static_cast<double>(raw);
  decision.progress = progress;
  decision.predicted_remaining_seconds = predicted_remaining;
  return decision;
}

int JockeyController::InitialAllocation() const {
  if (config_.warm_start_tokens > 0) {
    // Warm start: the previous run's postmortem already told us what the critical
    // path needed; skip the cold scan.
    return std::clamp(config_.warm_start_tokens, config_.min_tokens, config_.max_tokens);
  }
  std::vector<double> zeros;
  if (table_ != nullptr) {
    // The table knows progress only, not fractions; pass an empty vector for the
    // fractions (unused on the table path).
    return RawAllocation(0.0, 0.0, zeros, shifted_utility_);
  }
  zeros.assign(static_cast<size_t>(0), 0.0);
  // Amdahl path needs the fraction vector; PredictTotal covers the fresh-job case.
  double best_utility = 0.0;
  int best_allocation = config_.max_tokens;
  bool first = true;
  const PiecewiseLinear& shifted = shifted_utility_;
  for (int a = config_.min_tokens; a <= config_.max_tokens; ++a) {
    double u = shifted(config_.slack * amdahl_->PredictTotal(a));
    if (first || u > best_utility + 1e-9) {
      best_utility = u;
      best_allocation = a;
      first = false;
    }
  }
  return best_allocation;
}

void JockeyController::SetUtility(PiecewiseLinear utility) {
  utility_ = std::move(utility);
  shifted_utility_ = utility_.ShiftLeft(config_.dead_zone_seconds);
  // The fingerprint folds the shifted-utility knots, so a changed utility re-keys
  // the cache and drops every memoized column and decision.
  RekeyCache();
}

void JockeyController::ScheduleUtilityChange(double at_elapsed_seconds, PiecewiseLinear utility) {
  pending_change_at_ = at_elapsed_seconds;
  pending_utility_ = std::move(utility);
}

}  // namespace jockey
