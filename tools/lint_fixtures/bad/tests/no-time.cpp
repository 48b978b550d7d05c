// lint.census fixture: time() is banned outside bench/.
long now() { return std::time(nullptr); }
