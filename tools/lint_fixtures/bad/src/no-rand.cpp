// lint.census fixture: rand() and srand() are banned in every directory,
// and a marker for another rule does not suppress them.
int roll() { srand(7); return rand(); }  // lint:allow(no-time)
