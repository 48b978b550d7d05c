// lint.census fixture: std::random_device is banned in every directory.
int seed() {
  std::random_device rd;
  return static_cast<int>(rd());
}
