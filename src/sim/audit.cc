#include "src/sim/audit.h"

#include <algorithm>

#include "src/sim/assert.h"

namespace sim {

int Auditor::Register(std::string name, Check fn) {
  SIM_ASSERT_MSG(!running_, "Auditor::Register during a run");
  int token = next_token_++;
  checks_.push_back(Entry{token, std::move(name), std::move(fn)});
  return token;
}

void Auditor::Unregister(int token) {
  SIM_ASSERT_MSG(!running_, "Auditor::Unregister during a run");
  checks_.erase(std::remove_if(checks_.begin(), checks_.end(),
                               [token](const Entry& e) { return e.token == token; }),
                checks_.end());
}

void Auditor::RunChecks(std::span<const Entry> checks) {
  SIM_ASSERT_MSG(!running_, "recursive Auditor::Run");
  running_ = true;
  last_violations_.clear();
  for (const Entry& e : checks) {
    current_check_ = e.name.c_str();
    e.fn(*this);
  }
  current_check_ = nullptr;
  running_ = false;
}

std::size_t Auditor::Run() {
  RunChecks(checks_);
  ++runs_;
  total_violations_ += last_violations_.size();
  return last_violations_.size();
}

void Auditor::Enforce(int token) {
  auto it = std::find_if(checks_.begin(), checks_.end(),
                         [token](const Entry& e) { return e.token == token; });
  SIM_ASSERT_MSG(it != checks_.end(), "Auditor::Enforce of an unregistered check");
  RunChecks({&*it, 1});
  if (!last_violations_.empty()) {
    SIM_PANIC(last_violations_.front().c_str());
  }
}

void Auditor::Poll(Nanoseconds now, Tracer& tracer) {
  if (interval_ == 0 || now < next_due_) {
    return;
  }
  while (next_due_ <= now) {
    next_due_ += interval_;
  }
  std::size_t violations = Run();
  if (tracer.enabled()) {
    tracer.Instant(CostCat::kAudit, "audit", now, violations);
  }
  if (violations != 0) {
    SIM_PANIC(last_violations_.front().c_str());
  }
}

void Auditor::Fail(std::string detail) {
  std::string msg = "audit violation";
  if (current_check_ != nullptr) {
    msg += " [";
    msg += current_check_;
    msg += "]";
  }
  msg += ": ";
  msg += std::move(detail);
  last_violations_.push_back(std::move(msg));
}

}  // namespace sim
