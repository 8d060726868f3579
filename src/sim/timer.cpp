#include "sim/timer.hpp"

#include "common/contracts.hpp"

namespace graybox::sim {

namespace {
SimTime normalize(SimTime period) { return period == 0 ? 1 : period; }
}  // namespace

PeriodicTimer::PeriodicTimer(Scheduler& sched, SimTime period, TickFn fn)
    : sched_(sched), period_(normalize(period)), fn_(std::move(fn)) {
  GBX_EXPECTS(fn_ != nullptr);
}

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    sched_.cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicTimer::arm() {
  pending_ = sched_.schedule_after(period_, [this] { on_tick(); });
}

void PeriodicTimer::on_tick() {
  pending_ = 0;
  ++fired_;
  fn_();
  // pending_ != 0 here means fn_ re-armed us itself (stop()+start()); a
  // second arm would fork the tick chain.
  if (running_ && pending_ == 0) arm();
}

}  // namespace graybox::sim
