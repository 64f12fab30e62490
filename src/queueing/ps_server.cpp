#include "queueing/ps_server.h"

#include <cmath>

#include "util/check.h"

namespace hs::queueing {

PsServer::PsServer(sim::Simulator& simulator, double speed, int machine_index)
    : Server(simulator, speed, machine_index) {}

void PsServer::advance_clock() {
  const double now = simulator_.now();
  const double dt = now - last_update_;
  if (dt > 0.0 && !active_.empty()) {
    virtual_work_ += speed_ * dt / static_cast<double>(active_.size());
    busy_accum_ += dt;
  }
  last_update_ = now;
}

double PsServer::busy_time() const {
  double busy = busy_accum_;
  if (!active_.empty()) {
    busy += simulator_.now() - last_update_;
  }
  return busy;
}

bool PsServer::arrive(const Job& job) {
  HS_CHECK(job.size > 0.0, "job size must be positive, got " << job.size);
  if (at_capacity()) [[unlikely]] {
    return false;
  }
  advance_clock();
  // Under PS every resident job is in service, so residency == service.
  trace(obs::TraceEventKind::kServiceStart, job.id,
        static_cast<uint16_t>(job.attempt), job.size);
  active_.push(ActiveJob{virtual_work_ + job.size, job});
  reschedule_departure();
  return true;
}

void PsServer::set_speed(double new_speed) {
  HS_CHECK(new_speed >= 0.0, "speed must be >= 0, got " << new_speed);
  advance_clock();
  // PS preempts and resumes whole machines, not single jobs: a stop
  // (speed -> 0) freezes every resident job, recovery restarts them.
  if (!active_.empty()) {
    if (speed_ > 0.0 && new_speed <= 0.0) {
      trace(obs::TraceEventKind::kPreempt, obs::TraceSink::kNoJob);
    } else if (speed_ <= 0.0 && new_speed > 0.0) {
      trace(obs::TraceEventKind::kResume, obs::TraceSink::kNoJob);
    }
  }
  speed_ = new_speed;
  reschedule_departure();
}

std::vector<Job> PsServer::evict_all() {
  advance_clock();
  simulator_.cancel(pending_departure_);
  pending_departure_ = sim::EventHandle{};
  std::vector<Job> evicted;
  evicted.reserve(active_.size());
  while (!active_.empty()) {
    evicted.push_back(active_.top().job);
    active_.pop();
  }
  return evicted;
}

bool PsServer::evict(uint64_t job_id) {
  advance_clock();
  std::vector<ActiveJob>& keep = evict_scratch_;
  keep.clear();
  bool found = false;
  while (!active_.empty()) {
    if (!found && active_.top().job.id == job_id) {
      found = true;
    } else {
      keep.push_back(active_.top());
    }
    active_.pop();
  }
  for (const ActiveJob& a : keep) {
    active_.push(a);
  }
  if (found) {
    reschedule_departure();
  }
  return found;
}

void PsServer::reschedule_departure() {
  if (active_.empty() || speed_ <= 0.0) {
    // A stopped machine holds its jobs until speed recovers.
    simulator_.cancel(pending_departure_);
    pending_departure_ = sim::EventHandle{};
    return;
  }
  const double min_tag = active_.top().finish_tag;
  // Remaining virtual work for the leader divided by its share rate.
  const double remaining = min_tag - virtual_work_;
  const double dt = std::fmax(remaining, 0.0) *
                    static_cast<double>(active_.size()) / speed_;
  if (!simulator_.reschedule_in(pending_departure_, dt)) {
    pending_departure_ = simulator_.schedule_in(dt, *this, 0);
  }
}

void PsServer::on_event(uint32_t /*kind*/, const sim::EventArgs& /*args*/) {
  on_departure_event();
}

void PsServer::on_departure_event() {
  pending_departure_ = sim::EventHandle{};
  advance_clock();
  HS_CHECK(!active_.empty(), "departure event on idle PS server");
  // The scheduled leader departs now. Absorb any rounding drift so the
  // virtual clock never runs behind the departing job's tag.
  const ActiveJob leader = active_.top();
  active_.pop();
  virtual_work_ = std::fmax(virtual_work_, leader.finish_tag);
  emit_completion(leader.job, simulator_.now());
  // Jobs whose tags coincide (equal finish tags happen with deterministic
  // sizes) depart at the same instant.
  while (!active_.empty() &&
         active_.top().finish_tag <= virtual_work_ * (1.0 + 1e-15)) {
    const ActiveJob next = active_.top();
    active_.pop();
    virtual_work_ = std::fmax(virtual_work_, next.finish_tag);
    emit_completion(next.job, simulator_.now());
  }
  reschedule_departure();
}

}  // namespace hs::queueing
