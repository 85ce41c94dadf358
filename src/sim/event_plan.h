// The timed-plan core behind --pressure, --memfault and the chaos span=
// option: the field and ';'-spec splitters, the one unsigned-integer and
// TIME[ns|us|ms|s] lexer (values that do not fit in 64 bits are rejected,
// never wrapped), ParseTimedPlan for "@TIME verb..." plans, and
// Timeline<Event>, the time-ordered cursor that PressureEngine and the
// memory-fault half of FaultInjector replay. The per-device I/O fault plans
// count operations ("fail the Nth op"), not virtual time, and sit outside.
#ifndef SRC_SIM_EVENT_PLAN_H_
#define SRC_SIM_EVENT_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace sim {

// Every `sep`-separated field of `s`, empty ones included ("" is {""}).
std::vector<std::string> SplitFields(std::string_view s, char sep);
// The ';'-separated segments of `spec` that are not blank, untrimmed.
std::vector<std::string> SplitPlanSpec(const std::string& spec);
std::string_view TrimSpace(std::string_view s);

// True iff all of `s` is one unsigned decimal integer (ParseUint) or one
// duration N[ns|us|ms|s], default ns (ParseDuration), that fits in 64
// bits. *out is written only on success.
bool ParseUint(std::string_view s, std::uint64_t* out);
bool ParseDuration(std::string_view s, Nanoseconds* out);

// A cursor over one plan segment. Error messages quote the whole segment.
class PlanLexer {
 public:
  explicit PlanLexer(const std::string& segment) : s_(segment) {}

  void SkipSpace();
  // Consume `lit` if the input continues with it.
  bool Accept(std::string_view lit);
  // Leading whitespace, then "@TIME[ns|us|ms|s]".
  bool At(Nanoseconds* out, std::string* error);
  // An unsigned decimal integer, called `what` in error messages.
  bool Uint(const char* what, std::uint64_t* out, std::string* error);
  // Only whitespace remains.
  bool End(std::string* error);
  // "MESSAGE in \"SEGMENT\"", the form every plan error takes.
  std::string Error(const std::string& message) const;

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

// Parse a ';'-separated plan of "@TIME TAIL" events (blank segments
// allowed) into *events, in spec order. tail(lexer, &event, error) parses
// one event's verb-specific TAIL, starting after the time and any
// whitespace; trailing whitespace is allowed, anything else is junk.
// Returns false and fills *error at the first malformed event.
template <typename Event, typename Tail>
bool ParseTimedPlan(const std::string& spec, std::vector<Event>* events, std::string* error,
                    Tail&& tail) {
  events->clear();
  for (const std::string& seg : SplitPlanSpec(spec)) {
    PlanLexer lx(seg);
    Event ev;
    if (!lx.At(&ev.at, error)) {
      return false;
    }
    lx.SkipSpace();
    if (!tail(lx, &ev, error) || !lx.End(error)) {
      return false;
    }
    events->push_back(ev);
  }
  return true;
}

// Scripted events (each with a Nanoseconds `at`) replayed in (time, spec
// order) against the advancing virtual clock.
template <typename Event>
class Timeline {
 public:
  // Replace the events and restart from the first; same-time events keep
  // their order.
  void Set(std::vector<Event> events) {
    events_ = std::move(events);
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event& a, const Event& b) { return a.at < b.at; });
    next_ = 0;
  }

  bool empty() const { return events_.empty(); }
  std::size_t pending() const { return events_.size() - next_; }
  // True when the next event is due at or before `now`.
  bool Due(Nanoseconds now) const { return next_ < events_.size() && events_[next_].at <= now; }

  // Run fn(event) for every event due at or before `now`, in order. The
  // cursor moves past an event before fn sees it.
  template <typename Fn>
  void PopDue(Nanoseconds now, Fn&& fn) {
    while (Due(now)) {
      fn(events_[next_++]);
    }
  }

 private:
  std::vector<Event> events_;
  std::size_t next_ = 0;
};

}  // namespace sim

#endif  // SRC_SIM_EVENT_PLAN_H_
