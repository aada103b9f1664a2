#include "common/fault_plan.h"

#include <algorithm>

namespace btrim {

const char* FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kRead:
      return "read";
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kSync:
      return "sync";
    case FaultOp::kAppend:
      return "append";
    case FaultOp::kRollOver:
      return "rollover";
    case FaultOp::kDrop:
      return "drop";
  }
  return "?";
}

FaultPlan::FaultPlan(uint64_t seed) : rng_(seed) {}

void FaultPlan::CrashAtOp(uint64_t op_index) {
  MutexGuard guard(mu_);
  crash_ops_.push_back(op_index);
}

void FaultPlan::FailAtOp(uint64_t op_index) {
  MutexGuard guard(mu_);
  fail_ops_.push_back(op_index);
}

void FaultPlan::TornWriteAtOp(uint64_t op_index) {
  MutexGuard guard(mu_);
  torn_ops_.push_back(op_index);
}

void FaultPlan::FailNth(FaultOp op, const std::string& target_substr,
                        uint64_t nth) {
  MutexGuard guard(mu_);
  nth_triggers_.push_back(NthTrigger{op, target_substr, std::max<uint64_t>(nth, 1)});
}

void FaultPlan::SetErrorProbability(FaultOp op, double p) {
  MutexGuard guard(mu_);
  error_probability_[static_cast<int>(op)] = p;
}

void FaultPlan::EnableTrace(bool on) {
  MutexGuard guard(mu_);
  trace_enabled_ = on;
}

FaultOutcome FaultPlan::OnOp(const std::string& target, FaultOp op) {
  MutexGuard guard(mu_);
  const uint64_t index = next_op_++;
  if (trace_enabled_) trace_.push_back(TraceEntry{op, target});

  if (crashed_.load(std::memory_order_relaxed)) return FaultOutcome::kCrash;

  if (std::find(crash_ops_.begin(), crash_ops_.end(), index) !=
      crash_ops_.end()) {
    crashed_.store(true, std::memory_order_release);
    crash_op_ = index;
    return FaultOutcome::kCrash;
  }
  if (std::find(torn_ops_.begin(), torn_ops_.end(), index) !=
      torn_ops_.end()) {
    ++torn_writes_;
    ++errors_injected_;
    return FaultOutcome::kTorn;
  }
  if (std::find(fail_ops_.begin(), fail_ops_.end(), index) !=
      fail_ops_.end()) {
    ++errors_injected_;
    return FaultOutcome::kError;
  }
  for (NthTrigger& trigger : nth_triggers_) {
    if (trigger.remaining == 0 || trigger.op != op) continue;
    if (!trigger.target_substr.empty() &&
        target.find(trigger.target_substr) == std::string::npos) {
      continue;
    }
    if (--trigger.remaining == 0) {
      ++errors_injected_;
      return FaultOutcome::kError;
    }
  }
  const double p = error_probability_[static_cast<int>(op)];
  if (p > 0.0 && rng_.NextDouble() < p) {
    ++errors_injected_;
    return FaultOutcome::kError;
  }
  return FaultOutcome::kNone;
}

uint64_t FaultPlan::DrawUniform(uint64_t n) {
  MutexGuard guard(mu_);
  return n == 0 ? 0 : rng_.Uniform(n);
}

uint64_t FaultPlan::ops_seen() const {
  MutexGuard guard(mu_);
  return next_op_;
}

FaultPlanStats FaultPlan::GetStats() const {
  MutexGuard guard(mu_);
  FaultPlanStats s;
  s.ops_seen = static_cast<int64_t>(next_op_);
  s.errors_injected = errors_injected_;
  s.torn_writes = torn_writes_;
  s.crashed = crashed_.load(std::memory_order_relaxed);
  s.crash_op = crash_op_;
  return s;
}

std::vector<TraceEntry> FaultPlan::Trace() const {
  MutexGuard guard(mu_);
  return trace_;
}

Status FaultPlan::InjectedError(const std::string& target, FaultOp op) {
  return Status::IOError("injected " + std::string(FaultOpName(op)) +
                         " fault on " + target);
}

Status FaultPlan::CrashedError() {
  return Status::IOError("simulated crash: storage unavailable");
}

}  // namespace btrim
