// lint.census fixture: the header rules, suppressed.
#pragma once
using namespace std;  // lint:allow(no-using-namespace-header)
void set_delay(double delay_ps);  // lint:allow(unit-suffix-double)
