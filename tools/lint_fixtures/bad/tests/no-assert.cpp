// lint.census fixture: assert() compiles out; MGT_CHECK does not.
/* lint:allow(no-assert) on the first line of a block comment
   covers only that line and the next, so the prose below
   pushes the assert out of its reach */
void f(int n) {
  assert(n > 0);
}
