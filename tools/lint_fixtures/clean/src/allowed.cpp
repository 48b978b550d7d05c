// lint.census fixture: every rule's violation, suppressed by a lint:allow
// marker on the same line or the line above. The census must stay silent.
int seed() {
  std::random_device rd;  // lint:allow(no-random-device)
  return static_cast<int>(rd());
}
int legacy() { return rand(); }  // lint:allow(no-rand)
// lint:allow(no-rand, no-time)
int both() { return rand() + static_cast<int>(time(nullptr)); }
/* a marker on the last line of a block comment covers the next line
   lint:allow(no-rand) */
int r() { return rand(); }
auto t0 = std::chrono::steady_clock::now();  // lint:allow(no-wall-clock)
std::unordered_set<int> pool;  // lint:allow(no-unordered-iter)
void f(int n) { assert(n > 0); }  // lint:allow(no-assert)
float gain = 1.0F;  // lint:allow(no-float)
void stop(std::thread& t) {
  t.join();  // lint:allow(no-unbounded-wait)
}
void g() {
  // lint:allow(no-wallclock-metric, no-time)
  obs::add_counter("x", static_cast<unsigned long long>(time(nullptr)));
}
void h() {
  // lint:allow(no-catch-ignore)
  try { g(); } catch (...) {}
  // lint:allow(catch-by-reference)
  try { g(); } catch (Error e) { log(e); }
}
