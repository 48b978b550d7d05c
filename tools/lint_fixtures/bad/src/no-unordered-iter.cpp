// lint.census fixture: no unordered container may be declared, so none can
// be iterated in an unspecified order.
#include <unordered_map>

double total(const std::unordered_map<int, double>& weights);
