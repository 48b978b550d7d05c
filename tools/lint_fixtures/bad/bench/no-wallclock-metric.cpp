// lint.census fixture: a clock read feeding an obs metric, which bench/
// may not do either.
void f() {
  obs::registry().counter("bench.wall").add(
      std::chrono::steady_clock::now().time_since_epoch().count());
}
