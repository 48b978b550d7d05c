// lint.census fixture: tests may block and swallow exceptions; the src/
// rules do not apply here.
void stop(std::thread& t) { t.join(); }
void f() {
  try { g(); } catch (...) {}
  ASSERT_EQ(a, b);
  MGT_CHECK(a > 0);
}
