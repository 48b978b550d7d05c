// lint.census fixture: a handler whose body is only a comment.
void f() {
  try {
    g();
  } catch (const Error&) {
    // best effort
  }
}
