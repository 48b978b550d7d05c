// lint.census fixture: a raw double named for a unit in a src/ header.
#pragma once
struct Timing {
  const double& skew_ps;
};
