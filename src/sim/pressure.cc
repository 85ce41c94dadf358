#include "src/sim/pressure.h"

#include "src/sim/assert.h"

namespace sim {

const char* PressureResourceName(PressureResource r) {
  switch (r) {
    case PressureResource::kPhysPages:
      return "phys";
    case PressureResource::kSwapSlots:
      return "swap";
  }
  return "?";
}

bool ParsePressurePlan(const std::string& spec, PressurePlan* out, std::string* error) {
  return ParseTimedPlan(
      spec, &out->events, error, [](PlanLexer& lx, PressureEvent* ev, std::string* err) {
        if (lx.Accept("phys")) {
          ev->res = PressureResource::kPhysPages;
        } else if (lx.Accept("swap")) {
          ev->res = PressureResource::kSwapSlots;
        } else {
          *err = lx.Error("expected resource 'phys' or 'swap'");
          return false;
        }
        lx.SkipSpace();
        if (lx.Accept("-=")) {
          ev->op = PressureOp::kShrink;
        } else if (lx.Accept("+=")) {
          ev->op = PressureOp::kGrow;
        } else if (lx.Accept("=")) {
          ev->op = PressureOp::kSetAvail;
        } else {
          *err = lx.Error("expected '-=', '+=' or '='");
          return false;
        }
        lx.SkipSpace();
        return lx.Uint("amount", &ev->amount, err);
      });
}

void PressureEngine::ApplyDue(Nanoseconds now, Stats& stats, Tracer& tracer) {
  timeline_.PopDue(now, [&](const PressureEvent& ev) {
    const Actuator& fn = actuators_[static_cast<std::size_t>(ev.res)];
    SIM_ASSERT_MSG(fn != nullptr, "pressure plan targets a resource with no registered actuator");
    fn(ev);
    ++stats.pressure_events;
    if (tracer.enabled()) {
      tracer.Instant(CostCat::kOther,
                     ev.res == PressureResource::kPhysPages ? "pressure_phys" : "pressure_swap",
                     now, ev.amount);
    }
  });
}

}  // namespace sim
