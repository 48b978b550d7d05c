// lint.census fixture: code that resembles a violation but is not one.
#include <ctime>
#include <unordered_map>
#pragma once
int roll(Rng& rng) { return static_cast<int>(rng.rand()) + p->rand(); }
void randomize_codes(int n);
int strand(int x) { return x; }
auto t = sim.time();
double rise_time(int code);
auto x = rise_time(3);
static_assert(sizeof(int) == 4);
bool floating_output = false;
using namespace mgt;
double set_delay(double delay_ps) { return delay_ps; }
std::size_t gate_budget = 1'000'000;
std::map<int, double> weights;
const char* label = "guard time (each side) and rand()";
const char* raw = R"(std::random_device)";
char quote = '"';
// calling time() or rand() here would be bad; std::random_device too
/* std::steady_clock in prose,
   assert(false) and float too */
bool block(std::condition_variable& cv, std::unique_lock<std::mutex>& l,
           std::chrono::milliseconds d) {
  return cv.wait_for(l, d) == std::cv_status::no_timeout;
}
bool take(std::counting_semaphore<4>& s, std::chrono::milliseconds d) {
  return s.try_acquire_for(d);
}
void wait(int ticks);
void run() { wait(4); }
void f(std::uint64_t n, const Span& s, std::uint64_t wall_ns) {
  obs::add_counter("x", n);
  obs::set_gauge("t", s.time());
  obs::registry().profile_add("scope", 1, 0, wall_ns);
  try {
    g();
  } catch (const Error& e) {
    ++failures;
  } catch (...) {
    ++failures;
  }
}
