// lint.census fixture: unit-safe declarations in a src/ header.
#pragma once
void set_delay(Picoseconds delay);
double worst_residual_ps() const;
std::vector<double> taps_ps;
using mgt::Picoseconds;
