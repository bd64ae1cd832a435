// DSOC programming model: marshalling, broker directory, skeleton dispatch
// onto PE pools, oneway and two-way invocations.
#include <gtest/gtest.h>

#include "soc/dsoc/broker.hpp"
#include "soc/dsoc/client.hpp"
#include "soc/dsoc/marshal.hpp"
#include "soc/dsoc/skeleton.hpp"
#include "soc/noc/topologies.hpp"
#include "soc/platform/mt_pe.hpp"
#include "soc/tlm/endpoints.hpp"

namespace soc::dsoc {
namespace {

// ----------------------------------------------------------- marshalling ---

TEST(Marshal, CallRoundTrip) {
  const CallHeader hdr{7, 3, 99, 2};
  const std::vector<std::uint32_t> args{10, 20, 30};
  const auto body = marshal_call(hdr, args);
  EXPECT_EQ(body.size(), kCallHeaderWords + 3);

  std::vector<std::uint32_t> out_args;
  const CallHeader got = unmarshal_call(body, out_args);
  EXPECT_EQ(got.object, 7u);
  EXPECT_EQ(got.method, 3u);
  EXPECT_EQ(got.call, 99u);
  EXPECT_EQ(got.reply_terminal, 2u);
  EXPECT_EQ(out_args, args);
}

TEST(Marshal, HeaderWrittenInPlaceEqualsMarshalCall) {
  const CallHeader hdr{7, 3, 99, kNoReply};
  const std::vector<std::uint32_t> args{10, 20, 30};
  WireWriter w;
  w.reserve(kCallHeaderWords + args.size());
  put_call_header(w, hdr, static_cast<std::uint32_t>(args.size()));
  for (const std::uint32_t a : args) w.u32(a);
  EXPECT_EQ(w.take(), marshal_call(hdr, args));
}

TEST(Marshal, ReplyRoundTrip) {
  const std::vector<std::uint32_t> results{5, 6};
  const auto body = marshal_reply(42, results);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(unmarshal_reply(body, out), 42u);
  EXPECT_EQ(out, results);
}

TEST(Marshal, EmptyArgsOk) {
  const auto body = marshal_call(CallHeader{1, 2, 3, kNoReply}, {});
  std::vector<std::uint32_t> out;
  const auto hdr = unmarshal_call(body, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(hdr.reply_terminal, kNoReply);
}

TEST(Marshal, TruncatedInputsThrow) {
  std::vector<std::uint32_t> out;
  EXPECT_THROW(unmarshal_call(std::vector<std::uint32_t>{1, 2}, out),
               std::invalid_argument);
  // argc says 5 but only 1 arg present:
  std::vector<std::uint32_t> bad{1, 2, 3, 4, 5, 99};
  EXPECT_THROW(unmarshal_call(bad, out), std::invalid_argument);
  EXPECT_THROW(unmarshal_reply(std::vector<std::uint32_t>{1}, out),
               std::invalid_argument);
  std::vector<std::uint32_t> bad_reply{1, 3, 9};
  EXPECT_THROW(unmarshal_reply(bad_reply, out), std::invalid_argument);
}

TEST(Marshal, EveryTruncatedHeaderThrows) {
  // Fuzz-ish: every strict prefix of a well-formed call must be rejected
  // with std::invalid_argument — never parsed, never read out of bounds.
  const std::vector<std::uint32_t> args{10, 20, 30};
  const auto body = marshal_call(CallHeader{7, 3, 99, 2}, args);
  std::vector<std::uint32_t> out;
  for (std::size_t n = 0; n < body.size(); ++n) {
    const std::vector<std::uint32_t> cut(body.begin(), body.begin() + n);
    EXPECT_THROW(unmarshal_call(cut, out), std::invalid_argument) << n;
  }
  const std::vector<std::uint32_t> results{1, 2};
  const auto reply = marshal_reply(99, results);
  for (std::size_t n = 0; n < reply.size(); ++n) {
    const std::vector<std::uint32_t> cut(reply.begin(), reply.begin() + n);
    EXPECT_THROW(unmarshal_reply(cut, out), std::invalid_argument) << n;
  }
}

TEST(Marshal, ArgcOverrunAndTrailingGarbageThrow) {
  std::vector<std::uint32_t> out;
  // argc claims one more word than the body carries.
  const std::vector<std::uint32_t> one_arg{9};
  std::vector<std::uint32_t> body = marshal_call(CallHeader{1, 2, 3, 4}, one_arg);
  body[4] = 2;
  EXPECT_THROW(unmarshal_call(body, out), std::invalid_argument);
  // argc maxed out must not drive an allocation or an OOB scan.
  body[4] = 0xFFFFFFFFu;
  EXPECT_THROW(unmarshal_call(body, out), std::invalid_argument);
  // Words dangling past argc are garbage, not silently ignored.
  std::vector<std::uint32_t> extra =
      marshal_call(CallHeader{1, 2, 3, 4}, one_arg);
  extra.push_back(0);
  EXPECT_THROW(unmarshal_call(extra, out), std::invalid_argument);
  const std::vector<std::uint32_t> one_result{1};
  std::vector<std::uint32_t> reply = marshal_reply(3, one_result);
  reply.push_back(0);
  EXPECT_THROW(unmarshal_reply(reply, out), std::invalid_argument);
  reply.pop_back();
  reply[1] = 0xFFFFFFFFu;  // retc overrun
  EXPECT_THROW(unmarshal_reply(reply, out), std::invalid_argument);
}

TEST(Marshal, BogusReplyTerminalThrows) {
  std::vector<std::uint32_t> out;
  // Anything between kMaxReplyTerminal and kNoReply is a corrupt header.
  std::vector<std::uint32_t> body = marshal_call(CallHeader{1, 2, 3, 4}, {});
  body[3] = kMaxReplyTerminal + 1;
  EXPECT_THROW(unmarshal_call(body, out), std::invalid_argument);
  body[3] = kNoReply - 1;
  EXPECT_THROW(unmarshal_call(body, out), std::invalid_argument);
  body[3] = kMaxReplyTerminal;
  EXPECT_NO_THROW(unmarshal_call(body, out));
  body[3] = kNoReply;
  EXPECT_NO_THROW(unmarshal_call(body, out));
}

// ------------------------------------------------------------- test rig ---

/// Platform-in-miniature: 8-terminal mesh, a pool of 2 PEs on a shared
/// queue, one skeleton terminal (6) and one client terminal (7).
struct Rig {
  Rig() : net(noc::make_mesh(8), {}, queue), transport(net, queue) {
    platform::PeConfig pc0;
    pc0.terminal = 0;
    pc0.thread_contexts = 2;
    platform::PeConfig pc1 = pc0;
    pc1.terminal = 1;
    pe0 = std::make_unique<platform::MtPe>("pe0", pc0, transport, pool, queue);
    pe1 = std::make_unique<platform::MtPe>("pe1", pc1, transport, pool, queue);
    pe0->start();
    pe1->start();
  }
  sim::EventQueue queue;
  noc::Network net;
  tlm::Transport transport;
  platform::WorkQueue pool;
  std::unique_ptr<platform::MtPe> pe0, pe1;
};

InterfaceDef calc_iface() {
  return InterfaceDef{"Calculator", {{0, "add"}, {1, "mul"}}};
}

MethodImpl add_impl() {
  return [](std::shared_ptr<InvocationContext> ctx) -> platform::TaskGen {
    return [ctx, step = 0](const std::vector<std::uint32_t>&) mutable
               -> platform::Step {
      if (step++ == 0) return platform::Step::compute(10);
      ctx->results = {ctx->args.at(0) + ctx->args.at(1)};
      return platform::Step::done();
    };
  };
}

TEST(Skeleton, BindValidatesInterface) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  EXPECT_NO_THROW(sk.bind(0, add_impl()));
  EXPECT_THROW(sk.bind(9, add_impl()), std::invalid_argument);
}

TEST(Broker, RegistrationAndResolution) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  sk.bind(0, add_impl());
  Broker broker(rig.transport);
  const ObjectRef ref = broker.register_object("calc", sk);
  EXPECT_EQ(ref.terminal, 6u);
  EXPECT_EQ(broker.resolve("calc").id, 1u);
  EXPECT_EQ(broker.object_count(), 1u);
  EXPECT_FALSE(broker.try_resolve("nope").has_value());
  EXPECT_THROW(broker.resolve("nope"), std::out_of_range);
  EXPECT_THROW(broker.register_object("calc", sk), std::logic_error);
}

TEST(Broker, UnknownObjectErrorListsRegisteredNames) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  Broker broker(rig.transport);
  try {
    broker.resolve("calcc");
    FAIL() << "resolve() of an empty directory should throw";
  } catch (const UnknownObjectError& e) {
    EXPECT_NE(std::string(e.what()).find("calcc"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nothing registered"),
              std::string::npos);
  }
  broker.register_object("calc", sk);
  try {
    broker.resolve("calcc");
    FAIL() << "resolve() of an unknown name should throw";
  } catch (const UnknownObjectError& e) {
    // The message names the typo and lists what is registered.
    EXPECT_NE(std::string(e.what()).find("calcc"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("calc"), std::string::npos);
  }
  // UnknownObjectError stays catchable as the historical out_of_range.
  EXPECT_THROW(broker.resolve("calcc"), std::out_of_range);
}

TEST(Dsoc, TwoWayCallReturnsResult) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  sk.bind(0, add_impl());
  Broker broker(rig.transport);
  const ObjectRef ref = broker.register_object("calc", sk);

  ClientPort port(7, rig.transport);
  Proxy proxy(ref, port, rig.transport);

  std::vector<std::uint32_t> result;
  proxy.call(0, {20, 22},
             [&](std::vector<std::uint32_t> r) { result = std::move(r); });
  rig.queue.run_all();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], 42u);
  EXPECT_EQ(sk.invocations(), 1u);
  EXPECT_EQ(sk.replies_sent(), 1u);
  EXPECT_EQ(port.replies_received(), 1u);
  EXPECT_EQ(port.outstanding_calls(), 0u);
}

TEST(Dsoc, OnewayDoesNotReply) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  sk.bind(0, add_impl());
  Broker broker(rig.transport);
  const ObjectRef ref = broker.register_object("calc", sk);
  ClientPort port(7, rig.transport);
  Proxy proxy(ref, port, rig.transport);

  proxy.oneway(0, {1, 2});
  rig.queue.run_all();
  EXPECT_EQ(sk.invocations(), 1u);
  EXPECT_EQ(sk.replies_sent(), 0u);
  EXPECT_EQ(port.replies_received(), 0u);
}

TEST(Dsoc, ManyConcurrentCallsAllComplete) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  sk.bind(0, add_impl());
  Broker broker(rig.transport);
  const ObjectRef ref = broker.register_object("calc", sk);
  ClientPort port(7, rig.transport);
  Proxy proxy(ref, port, rig.transport);

  int completed = 0;
  for (std::uint32_t i = 0; i < 50; ++i) {
    proxy.call(0, {i, i}, [&completed, i](std::vector<std::uint32_t> r) {
      ++completed;
      ASSERT_EQ(r.size(), 1u);
      EXPECT_EQ(r[0], 2 * i);
    });
  }
  rig.queue.run_all();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(sk.method_count(0), 50u);
  // Work was spread across the pool: both PEs completed tasks.
  EXPECT_GT(rig.pe0->tasks_completed(), 0u);
  EXPECT_GT(rig.pe1->tasks_completed(), 0u);
}

TEST(Dsoc, MethodsDispatchIndependently) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  sk.bind(0, add_impl());
  sk.bind(1, [](std::shared_ptr<InvocationContext> ctx) -> platform::TaskGen {
    return [ctx](const std::vector<std::uint32_t>&) -> platform::Step {
      ctx->results = {ctx->args.at(0) * ctx->args.at(1)};
      return platform::Step::done();
    };
  });
  Broker broker(rig.transport);
  const ObjectRef ref = broker.register_object("calc", sk);
  ClientPort port(7, rig.transport);
  Proxy proxy(ref, port, rig.transport);

  std::uint32_t sum = 0, prod = 0;
  proxy.call(0, {3, 4}, [&](std::vector<std::uint32_t> r) { sum = r.at(0); });
  proxy.call(1, {3, 4}, [&](std::vector<std::uint32_t> r) { prod = r.at(0); });
  rig.queue.run_all();
  EXPECT_EQ(sum, 7u);
  EXPECT_EQ(prod, 12u);
  EXPECT_EQ(sk.method_count(0), 1u);
  EXPECT_EQ(sk.method_count(1), 1u);
}

TEST(Dsoc, UnboundMethodThrowsAtDispatch) {
  Rig rig;
  Skeleton sk(calc_iface(), 1, 6, rig.pool, rig.transport);
  sk.bind(0, add_impl());
  Broker broker(rig.transport);
  const ObjectRef ref = broker.register_object("calc", sk);
  ClientPort port(7, rig.transport);
  Proxy proxy(ref, port, rig.transport);
  proxy.oneway(1, {});  // mul was never bound
  EXPECT_THROW(rig.queue.run_all(), std::logic_error);
}

TEST(Dsoc, ObjectToObjectPipeline) {
  // Object A's method forwards to object B via a oneway step — the
  // processing-pipeline composition style the IPv4 fast path uses.
  Rig rig;
  InterfaceDef stage_iface{"Stage", {{0, "go"}}};

  platform::WorkQueue pool_b;  // B gets its own single-PE pool
  platform::PeConfig pcb;
  pcb.terminal = 2;
  pcb.thread_contexts = 2;
  platform::MtPe pe_b("peB", pcb, rig.transport, pool_b, rig.queue);
  pe_b.start();

  Skeleton b(stage_iface, 2, 5, pool_b, rig.transport);
  std::uint32_t b_saw = 0;
  b.bind(0, [&b_saw](std::shared_ptr<InvocationContext> ctx) -> platform::TaskGen {
    return [&b_saw, ctx](const std::vector<std::uint32_t>&) -> platform::Step {
      b_saw = ctx->args.at(0);
      return platform::Step::done();
    };
  });
  Broker broker(rig.transport);
  const ObjectRef ref_b = broker.register_object("b", b);

  Skeleton a(stage_iface, 1, 6, rig.pool, rig.transport);
  a.bind(0, [ref_b](std::shared_ptr<InvocationContext> ctx) -> platform::TaskGen {
    return [ref_b, ctx, step = 0](const std::vector<std::uint32_t>&) mutable
               -> platform::Step {
      switch (step++) {
        case 0:
          return platform::Step::compute(10);
        case 1: {
          CallHeader hdr{ref_b.id, 0, 0, kNoReply};
          const std::vector<std::uint32_t> args{ctx->args.at(0) + 1};
          return platform::Step::send_payload(ref_b.terminal,
                                              marshal_call(hdr, args));
        }
        default:
          return platform::Step::done();
      }
    };
  });
  const ObjectRef ref_a = broker.register_object("a", a);

  ClientPort port(7, rig.transport);
  Proxy proxy(ref_a, port, rig.transport);
  proxy.oneway(0, {41});
  rig.queue.run_all();
  EXPECT_EQ(a.invocations(), 1u);
  EXPECT_EQ(b.invocations(), 1u);
  EXPECT_EQ(b_saw, 42u);
}

TEST(Dsoc, SkeletonRejectsNullSink) {
  Rig rig;
  EXPECT_THROW(Skeleton(calc_iface(), 1, 6, platform::WorkSink{}, rig.transport),
               std::invalid_argument);
}

TEST(Dsoc, MethodBodyCanUseRemoteReads) {
  // A method that reads from a memory endpoint mid-execution: exercises
  // the full PE-block/resume path inside a DSOC invocation.
  Rig rig;
  tlm::MemoryEndpoint mem(tlm::MemoryTiming{}, 64, rig.queue);
  rig.transport.attach(5, mem);
  mem.poke(4, 1000);

  InterfaceDef iface{"Reader", {{0, "fetch_and_add"}}};
  Skeleton sk(iface, 2, 6, rig.pool, rig.transport);
  sk.bind(0, [](std::shared_ptr<InvocationContext> ctx) -> platform::TaskGen {
    return [ctx, step = 0](const std::vector<std::uint32_t>& last) mutable
               -> platform::Step {
      switch (step++) {
        case 0:
          return platform::Step::read(5, 16, 1);  // word 4
        case 1:
          ctx->results = {last.at(0) + ctx->args.at(0)};
          return platform::Step::done();
        default:
          return platform::Step::done();
      }
    };
  });
  Broker broker(rig.transport);
  const ObjectRef ref = broker.register_object("reader", sk);
  ClientPort port(7, rig.transport);
  Proxy proxy(ref, port, rig.transport);

  std::uint32_t result = 0;
  proxy.call(0, {23}, [&](std::vector<std::uint32_t> r) { result = r.at(0); });
  rig.queue.run_all();
  EXPECT_EQ(result, 1023u);
}

}  // namespace
}  // namespace soc::dsoc
