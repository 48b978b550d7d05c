// lint.census fixture: a blocking member wait with no deadline in src/.
void block(std::condition_variable* cv,
           std::unique_lock<std::mutex>& lock) {
  cv->wait(lock);
}
