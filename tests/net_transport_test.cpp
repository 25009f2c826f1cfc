// Socket transport (src/net/transport.hpp): stream-safe framing through
// FrameReader (including 1-byte-at-a-time regression), echo round trips over
// both backends, large payloads, connect retry against a late-binding
// server, recv timeouts, and the bitwise mirror between connection byte
// counters and the pardon_net_bytes_{sent,received}_total obs counters.
#include "net/transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "fl/comm.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "tensor/rng.hpp"

namespace pardon::net {
namespace {

std::vector<std::uint8_t> RandomPayload(std::size_t size, std::uint64_t seed) {
  tensor::Pcg32 rng(seed);
  std::vector<std::uint8_t> payload(size);
  for (auto& byte : payload) {
    byte = static_cast<std::uint8_t>(rng.NextU32() & 0xff);
  }
  return payload;
}

std::string UniqueSocketPath(const char* tag) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("pardon_net_test_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock"))
      .string();
}

// -- FrameReader (stream-safe framing) --------------------------------------

TEST(FrameReader, OneByteAtATime) {
  // The regression the reader exists for: a frame arriving in 1-byte reads
  // must assemble exactly once, identical to a single-read arrival.
  const std::vector<std::uint8_t> payload = RandomPayload(301, 1);
  const std::vector<std::uint8_t> framed = fl::FrameMessage(payload);

  fl::FrameReader reader;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    EXPECT_FALSE(reader.Next().has_value()) << "before byte " << i;
    reader.Feed({&framed[i], 1});
  }
  const auto out = reader.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, CoalescedFramesSplitApart) {
  // Several frames in one read (plus a partial tail) come out one by one.
  const std::vector<std::vector<std::uint8_t>> payloads = {
      RandomPayload(7, 2), {}, RandomPayload(64, 3), RandomPayload(1, 4)};
  std::vector<std::uint8_t> stream;
  for (const auto& payload : payloads) {
    const auto framed = fl::FrameMessage(payload);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  const auto last = fl::FrameMessage(RandomPayload(32, 5));
  stream.insert(stream.end(), last.begin(), last.end() - 3);  // partial tail

  fl::FrameReader reader;
  reader.Feed(stream);
  for (const auto& payload : payloads) {
    const auto out = reader.Next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, payload);
  }
  EXPECT_FALSE(reader.Next().has_value());
  reader.Feed({last.data() + last.size() - 3, 3});
  ASSERT_TRUE(reader.Next().has_value());
}

TEST(FrameReader, ArbitrarySplitPointsAreIdentity) {
  const std::vector<std::uint8_t> a = RandomPayload(59, 6);
  const std::vector<std::uint8_t> b = RandomPayload(113, 7);
  std::vector<std::uint8_t> stream = fl::FrameMessage(a);
  const auto framed_b = fl::FrameMessage(b);
  stream.insert(stream.end(), framed_b.begin(), framed_b.end());

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    fl::FrameReader reader;
    reader.Feed({stream.data(), split});
    std::vector<std::vector<std::uint8_t>> got;
    while (auto frame = reader.Next()) got.push_back(std::move(*frame));
    reader.Feed({stream.data() + split, stream.size() - split});
    while (auto frame = reader.Next()) got.push_back(std::move(*frame));
    ASSERT_EQ(got.size(), 2u) << "split " << split;
    EXPECT_EQ(got[0], a);
    EXPECT_EQ(got[1], b);
  }
}

TEST(FrameReader, OversizedLengthPoisons) {
  fl::FrameReader reader(/*max_payload=*/16);
  const auto framed = fl::FrameMessage(RandomPayload(17, 8));
  reader.Feed(framed);
  EXPECT_THROW(reader.Next(), fl::FramingError);
  // Poisoned: a stream cannot resynchronize after a bad header.
  EXPECT_THROW(reader.Next(), fl::FramingError);
}

TEST(FrameReader, CrcMismatchPoisons) {
  auto framed = fl::FrameMessage(RandomPayload(24, 9));
  framed.back() ^= 0x40;
  fl::FrameReader reader;
  reader.Feed(framed);
  EXPECT_THROW(reader.Next(), fl::FramingError);
  EXPECT_THROW(reader.Next(), fl::FramingError);
}

// -- Endpoint ---------------------------------------------------------------

TEST(Endpoint, ToStringParseRoundTrip) {
  const Endpoint tcp = Endpoint::Tcp("127.0.0.1", 4242);
  const auto tcp2 = Endpoint::Parse(tcp.ToString());
  ASSERT_TRUE(tcp2.has_value());
  EXPECT_EQ(tcp2->backend, Backend::kTcp);
  EXPECT_EQ(tcp2->host, "127.0.0.1");
  EXPECT_EQ(tcp2->port, 4242);

  const Endpoint unix_ep = Endpoint::UnixSocket("/tmp/x.sock");
  const auto unix2 = Endpoint::Parse(unix_ep.ToString());
  ASSERT_TRUE(unix2.has_value());
  EXPECT_EQ(unix2->backend, Backend::kUnix);
  EXPECT_EQ(unix2->path, "/tmp/x.sock");

  EXPECT_FALSE(Endpoint::Parse("carrier-pigeon:coop").has_value());
  EXPECT_FALSE(Endpoint::Parse("tcp:no-port").has_value());
  EXPECT_FALSE(Endpoint::Parse("tcp:1.2.3.4:70000").has_value());
  EXPECT_FALSE(Endpoint::Parse("").has_value());
}

// -- echo round trips over real sockets -------------------------------------

class TransportBackends : public ::testing::TestWithParam<Backend> {
 protected:
  Endpoint MakeEndpoint() {
    if (GetParam() == Backend::kTcp) return Endpoint::Tcp("127.0.0.1", 0);
    return Endpoint::UnixSocket(UniqueSocketPath("echo"));
  }
};

TEST_P(TransportBackends, EchoRoundTrip) {
  Listener listener = Listener::Bind(MakeEndpoint(), /*io_timeout=*/10.0);
  const Endpoint bound = listener.bound();
  if (GetParam() == Backend::kTcp) {
    EXPECT_GT(bound.port, 0) << "ephemeral port must be resolved";
  }

  std::thread server([&listener] {
    Connection conn = listener.Accept();
    for (int i = 0; i < 3; ++i) {
      const auto frame = conn.RecvFrame();
      conn.SendFrame(frame);  // echo
    }
  });

  Connection client = Connect(bound);
  for (int i = 0; i < 3; ++i) {
    const auto payload = RandomPayload(100 + 1000 * static_cast<std::size_t>(i),
                                       static_cast<std::uint64_t>(i) + 40);
    client.SendFrame(payload);
    EXPECT_EQ(client.RecvFrame(), payload);
  }
  server.join();
  // 8-byte frame header per message, echoed symmetrically.
  EXPECT_EQ(client.bytes_sent(), client.bytes_received());
  EXPECT_EQ(client.bytes_sent(), (100 + 8) + (1100 + 8) + (2100 + 8));
}

TEST_P(TransportBackends, LargePayloadSurvives) {
  // 8 MiB — far beyond any single kernel buffer, so this exercises partial
  // sends and fragmented receives for real.
  Listener listener = Listener::Bind(MakeEndpoint(), /*io_timeout=*/30.0);
  const Endpoint bound = listener.bound();
  const std::vector<std::uint8_t> payload = RandomPayload(8u << 20, 50);

  std::thread server([&listener, &payload] {
    Connection conn = listener.Accept();
    const auto got = conn.RecvFrame();
    ASSERT_EQ(got.size(), payload.size());
    EXPECT_EQ(0, std::memcmp(got.data(), payload.data(), payload.size()));
    conn.SendFrame(got);
  });

  Connection client = Connect(bound, {.io_timeout_seconds = 30.0});
  client.SendFrame(payload);
  const auto echoed = client.RecvFrame();
  server.join();
  ASSERT_EQ(echoed.size(), payload.size());
  EXPECT_EQ(0, std::memcmp(echoed.data(), payload.data(), payload.size()));
}

TEST_P(TransportBackends, ConnectRetriesUntilServerBinds) {
  // The client starts BEFORE the listener exists; bounded backoff must ride
  // out the window. TCP gets a fixed (likely-free) high port; unix gets a
  // not-yet-created path.
  Endpoint endpoint = MakeEndpoint();
  if (GetParam() == Backend::kTcp) {
    // Bind once to find a free port, then release it for the late server.
    Listener probe = Listener::Bind(endpoint);
    endpoint = probe.bound();
  }

  std::thread late_server([&endpoint] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Listener listener = Listener::Bind(endpoint, /*io_timeout=*/10.0);
    Connection conn = listener.Accept();
    conn.SendFrame(std::vector<std::uint8_t>{1, 2, 3});
  });

  RetryPolicy retry;
  retry.max_connect_attempts = 50;
  retry.io_timeout_seconds = 10.0;
  Connection client = Connect(endpoint, retry);
  EXPECT_EQ(client.RecvFrame(), (std::vector<std::uint8_t>{1, 2, 3}));
  late_server.join();
}

TEST(Connect, NonRetryableErrorStopsAfterOneAttempt) {
  // A path component that is a regular file makes connect() fail with
  // ENOTDIR, which no amount of waiting heals: Connect must give up at once
  // and say how many attempts it actually made.
  const std::filesystem::path file = UniqueSocketPath("regular_file");
  { std::ofstream(file) << "not a directory\n"; }
  RetryPolicy retry;
  retry.max_connect_attempts = 30;
  retry.initial_backoff_seconds = 1.0;
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)Connect(Endpoint::UnixSocket((file / "sock").string()), retry);
    ADD_FAILURE() << "Connect through a regular file succeeded";
  } catch (const NetError& error) {
    const std::string text = error.what();
    EXPECT_NE(text.find("after 1 attempt"), std::string::npos) << text;
    EXPECT_NE(text.find("Not a directory"), std::string::npos) << text;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  std::filesystem::remove(file);
}

TEST_P(TransportBackends, RecvTimesOut) {
  Listener listener = Listener::Bind(MakeEndpoint(), /*io_timeout=*/5.0);
  const Endpoint bound = listener.bound();
  std::thread server([&listener] {
    Connection conn = listener.Accept();
    // Send nothing; hold the connection open long enough for the client's
    // recv to hit its own (much shorter) deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });
  Connection client = Connect(bound, {.io_timeout_seconds = 0.1});
  EXPECT_THROW(client.RecvFrame(), TimeoutError);
  server.join();
}

TEST_P(TransportBackends, PeerCloseWhileWaitingIsNetError) {
  Listener listener = Listener::Bind(MakeEndpoint(), /*io_timeout=*/10.0);
  const Endpoint bound = listener.bound();
  std::thread server([&listener] {
    Connection conn = listener.Accept();
    conn.Close();  // EOF before any frame
  });
  Connection client = Connect(bound, {.io_timeout_seconds = 5.0});
  EXPECT_THROW(client.RecvFrame(), NetError);
  server.join();
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportBackends,
                         ::testing::Values(Backend::kTcp, Backend::kUnix),
                         [](const auto& param_info) {
                           return param_info.param == Backend::kTcp ? "Tcp"
                                                                    : "Unix";
                         });

// -- obs mirror -------------------------------------------------------------

TEST(TransportObs, ByteCountersMirrorBitwise) {
  obs::MetricsRegistry registry;
  obs::SetActiveMetrics(&registry);

  Listener listener =
      Listener::Bind(Endpoint::Tcp("127.0.0.1", 0), /*io_timeout=*/10.0);
  const Endpoint bound = listener.bound();
  std::int64_t server_sent = 0;
  std::int64_t server_received = 0;
  std::thread server([&] {
    Connection conn = listener.Accept();
    for (int i = 0; i < 2; ++i) conn.SendFrame(conn.RecvFrame());
    server_sent = conn.bytes_sent();
    server_received = conn.bytes_received();
  });

  Connection client = Connect(bound);
  client.SendFrame(RandomPayload(500, 70));
  (void)client.RecvFrame();
  client.SendFrame(RandomPayload(11, 71));
  (void)client.RecvFrame();
  server.join();

  // The registry counters aggregate BOTH endpoints of the loopback pair
  // (they live in one process here); the mirror contract is that the sums
  // agree bitwise with the per-connection counters.
  const double sent = registry.CounterValue(obs::kNetBytesSentTotal);
  const double received = registry.CounterValue(obs::kNetBytesReceivedTotal);
  obs::SetActiveMetrics(nullptr);

  EXPECT_EQ(sent, static_cast<double>(client.bytes_sent() + server_sent));
  EXPECT_EQ(received,
            static_cast<double>(client.bytes_received() + server_received));
  EXPECT_EQ(client.bytes_sent(), server_received);
  EXPECT_EQ(client.bytes_received(), server_sent);
}

// -- endpoint file rendezvous ----------------------------------------------

TEST(EndpointFile, WriteThenWaitRoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pardon_ep_" + std::to_string(::getpid()) + ".txt"))
          .string();
  const Endpoint endpoint = Endpoint::Tcp("127.0.0.1", 39171);
  WriteEndpointFile(path, endpoint);
  const Endpoint read = WaitForEndpointFile(path, 1.0);
  EXPECT_EQ(read.backend, Backend::kTcp);
  EXPECT_EQ(read.port, 39171);
  std::filesystem::remove(path);
}

TEST(EndpointFile, WaitTimesOutOnMissingFile) {
  EXPECT_THROW(
      WaitForEndpointFile("/tmp/pardon_definitely_missing_ep.txt", 0.05),
      TimeoutError);
}

}  // namespace
}  // namespace pardon::net
