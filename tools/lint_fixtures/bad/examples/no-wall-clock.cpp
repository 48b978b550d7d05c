// lint.census fixture: std::chrono wall clocks are banned outside bench/.
auto start = std::chrono::system_clock::now();
