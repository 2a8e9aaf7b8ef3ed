// UnixStream::write_some on a real socketpair: a full socket buffer gives
// a short count and then 0 (never a blocked call), every byte arrives in
// order once the peer drains, and a closed peer is a util::Error rather
// than a SIGPIPE.
#include "util/socket.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <string>
#include <string_view>
#include <thread>

#include "util/assert.hpp"

namespace optsched::util {
namespace {

TEST(UnixStream, WriteSomeTakesWhatFitsAndNeverBlocks) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UnixStream writer(fds[0]);
  UnixStream reader(fds[1]);

  // Far more than any socket buffer holds, in a pattern that shows
  // reordering or loss.
  std::string payload(std::size_t{8} << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>(i * 131 % 251);

  // The peer is not reading: the first call takes a prefix only, and
  // once the buffer is full further calls return 0 instead of blocking.
  std::string_view rest = payload;
  const std::size_t first = writer.write_some(rest);
  EXPECT_GT(first, 0u);
  EXPECT_LT(first, payload.size());
  rest.remove_prefix(first);
  std::size_t taken = 0;
  do {
    taken = writer.write_some(rest);
    rest.remove_prefix(taken);
  } while (taken > 0);
  EXPECT_EQ(writer.write_some(rest), 0u);

  // Once the peer drains, the rest goes out and arrives intact.
  std::thread drain([&] {
    while (reader.buffered().size() < payload.size())
      if (!reader.fill_some()) break;
  });
  while (!rest.empty()) {
    pollfd pfd{writer.fd(), POLLOUT, 0};
    ASSERT_GE(::poll(&pfd, 1, 10000), 1) << "peer never drained";
    rest.remove_prefix(writer.write_some(rest));
  }
  drain.join();
  EXPECT_TRUE(reader.buffered() == payload);

  // A vanished peer is a typed error on the writer, not a SIGPIPE that
  // kills the process.
  reader.close();
  EXPECT_THROW(writer.write_some("after close"), Error);
}

}  // namespace
}  // namespace optsched::util
