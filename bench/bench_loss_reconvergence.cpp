// Experiment E11 (Section 1 motivation): packets lost during a routing
// convergence outage versus Packet Re-cycling.
//
// "If a heavily loaded OC-192 link is down for a second, more than a quarter
//  of a million packets could be lost, given an average packet size of 1 kB."
//
// We replay that story analytically and in the event simulator: a link on
// GEANT fails at t=0; the IGP needs detection + SPF + FIB-update time to
// converge, during which every packet that reaches the failure point is
// dropped.  PR reroutes from the first packet after detection.
#include <iomanip>
#include <iostream>

#include "analysis/protocols.hpp"
#include "net/event_sim.hpp"
#include "route/igp.hpp"
#include "route/reconvergence.hpp"
#include "topo/topologies.hpp"

int main() {
  using namespace pr;

  // -- analytic headline number ------------------------------------------------
  const double oc192_bps = 9.953e9;     // OC-192 line rate
  const double packet_bytes = 1000.0;   // the paper's 1 kB average
  std::cout << "OC-192 at full load, 1 kB packets, outage vs packets lost:\n";
  for (double load : {0.25, 0.5, 1.0}) {
    for (double outage : {0.2, 1.0, 60.0}) {
      const double lost = oc192_bps * load / 8.0 / packet_bytes * outage;
      std::cout << "  load " << std::setw(4) << load * 100 << "%  outage "
                << std::setw(6) << outage << " s  ->  " << std::fixed
                << std::setprecision(0) << lost << " packets lost\n"
                << std::defaultfloat << std::setprecision(6);
    }
  }
  std::cout << "(the paper's quarter-million packets corresponds to ~0.2 s at full"
               " load)\n\n";

  // -- event-driven comparison on GEANT -----------------------------------------
  const graph::Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  const auto src = *g.find_node("PT");
  const auto dst = *g.find_node("RU");
  const auto failed = graph::dart_edge(suite.routes().next_dart(src, dst));

  const double kFailureTime = 0.010;
  const double kConvergence = 0.900;  // detection + flooding + SPF + FIB update
  const double kEnd = 2.0;
  const double kPacketInterval = 0.001;  // 1000 pps probe stream

  struct Tally {
    std::size_t delivered = 0;
    std::size_t dropped = 0;
  };

  std::cout << "GEANT " << g.display_name(src) << " -> " << g.display_name(dst)
            << ", link " << g.dart_name(suite.routes().next_dart(src, dst))
            << " fails at t=" << kFailureTime << " s, IGP converges after "
            << kConvergence << " s, probe rate " << 1 / kPacketInterval
            << " pps, horizon " << kEnd << " s\n";

  net::Network reconv_net(g);
  route::TimedReconvergence reconv_proto(reconv_net, suite.routes());
  Tally reconv_tally;
  {
    net::Simulator sim;
    sim.at(kFailureTime, [&] { reconv_net.fail_link(failed); });
    sim.at(kFailureTime + kConvergence, [&] { reconv_proto.complete_convergence(); });
    for (double t = 0.0; t < kEnd; t += kPacketInterval) {
      net::launch_packet(sim, reconv_net, reconv_proto, src, dst, t,
                         [&reconv_tally](const net::PathTrace& trace) {
                           if (trace.delivered()) {
                             ++reconv_tally.delivered;
                           } else {
                             ++reconv_tally.dropped;
                           }
                         });
    }
    sim.run();
  }

  core::PacketRecycling pr_proto(suite.routes(), suite.cycle_table());
  Tally pr_tally;
  {
    net::Network network(g);
    net::Simulator sim;
    sim.at(kFailureTime, [&] { network.fail_link(failed); });
    for (double t = 0.0; t < kEnd; t += kPacketInterval) {
      net::launch_packet(sim, network, pr_proto, src, dst, t,
                         [&pr_tally](const net::PathTrace& trace) {
                           if (trace.delivered()) {
                             ++pr_tally.delivered;
                           } else {
                             ++pr_tally.dropped;
                           }
                         });
    }
    sim.run();
  }

  // Realistic IGP: per-router LSA flooding with staggered SPF updates
  // (detection 50 ms, 1 ms LSA processing per hop, 100 ms SPF throttle).
  net::Network igp_net(g);
  net::Simulator igp_sim;
  route::LinkStateIgp igp(igp_sim, igp_net);
  Tally igp_tally;
  {
    igp_sim.at(kFailureTime, [&] {
      igp_net.fail_link(failed);
      igp.on_link_failure(failed);
    });
    for (double t = 0.0; t < kEnd; t += kPacketInterval) {
      net::launch_packet(igp_sim, igp_net, igp.protocol(), src, dst, t,
                         [&igp_tally](const net::PathTrace& trace) {
                           if (trace.delivered()) {
                             ++igp_tally.delivered;
                           } else {
                             ++igp_tally.dropped;
                           }
                         });
    }
    igp_sim.run();
  }

  std::cout << "\nprotocol            delivered  dropped  loss-window-estimate\n";
  std::cout << "reconv (1 timer)    " << std::setw(9) << reconv_tally.delivered
            << std::setw(9) << reconv_tally.dropped << "  ~"
            << static_cast<double>(reconv_tally.dropped) * kPacketInterval
            << " s of traffic\n";
  std::cout << "igp (flooded LSAs)  " << std::setw(9) << igp_tally.delivered
            << std::setw(9) << igp_tally.dropped << "  ~"
            << static_cast<double>(igp_tally.dropped) * kPacketInterval
            << " s of traffic  (" << igp.lsa_messages() << " LSAs, "
            << igp.spf_runs() << " SPF runs, last FIB update at t="
            << igp.last_table_update() << " s)\n";
  std::cout << "packet-recycling    " << std::setw(9) << pr_tally.delivered
            << std::setw(9) << pr_tally.dropped << "  ~"
            << static_cast<double>(pr_tally.dropped) * kPacketInterval
            << " s of traffic  (0 control messages)\n";
  return 0;
}
