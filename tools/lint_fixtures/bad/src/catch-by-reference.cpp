// lint.census fixture: catching by value slices the exception.
void f() {
  try { g(); } catch (Error e) { log(e); }
}
