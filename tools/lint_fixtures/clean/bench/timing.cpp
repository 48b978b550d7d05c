// lint.census fixture: bench/ may read the wall clock, just not into an
// obs metric; float and catch rules apply only to src/.
long now() { return time(nullptr); }
auto t0 = std::chrono::steady_clock::now();
void f() { widget().add(std::chrono::steady_clock::now()); }
float ratio = 0.5F;
