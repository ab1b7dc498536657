// utecheck fixture: a std::thread::join reachable from onRequest through
// a fork-join helper. The blocking rule must flag the join call site:
// a reactor callback that fans work out and waits for it stalls every
// connection just as a CondVar wait does.
//
// Self-contained stand-ins: utecheck types receivers from the classes
// declared in the analyzed files.
namespace std {
struct thread {
  void join();
};
}  // namespace std
struct Handler {};
struct MiniServer : Handler {
  std::thread helpers_[2];

  void onRequest() {  // Reactor::Handler callback
    fanOut();
  }

  void fanOut() {
    for (std::thread& t : helpers_) {
      t.join();  // blocking on the reactor thread: must be flagged
    }
  }
};
