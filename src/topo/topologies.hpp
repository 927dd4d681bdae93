// Bundled topologies: the paper's worked example (Figure 1) and the three ISP
// networks of its evaluation (Section 6).
//
// Provenance / substitutions:
//  * figure1       -- reconstructed exactly from the paper's narrative,
//                     including the embedding and the (unprinted) link
//                     weights pinned down by the worked scenarios.
//  * abilene       -- the public 11-node / 14-link Abilene core, exact.
//  * geant         -- 34-node / 55-link approximation of the 2009 GEANT2
//                     topology (the paper's snapshot is no longer published):
//                     dual-homed NRENs over a western-European core.
//  * teleglobe     -- 25-node / 45-link approximation of the Rocketfuel
//                     AS6453 PoP-level map (original dataset unavailable):
//                     NA / EU / Asia clusters with transoceanic trunks.
// All four are connected and 2-edge-connected (asserted by tests), which the
// paper's single-failure guarantee requires.
#pragma once

#include "embed/rotation_system.hpp"
#include "graph/graph.hpp"

namespace pr::topo {

/// The 6-node example network of the paper's Figure 1 (nodes labelled A-F).
[[nodiscard]] graph::Graph figure1();

/// The exact cellular embedding shown in Figure 1(a) (cycles c1-c4).
/// `g` must be the graph returned by figure1().
[[nodiscard]] embed::RotationSystem figure1_rotation(const graph::Graph& g);

/// Abilene (2004): 11 PoPs, 14 links, unit weights.
[[nodiscard]] graph::Graph abilene();

/// GEANT (2009-era approximation): 34 national nodes, 55 links, unit weights.
[[nodiscard]] graph::Graph geant();

/// Teleglobe / AS6453 (Rocketfuel-era approximation): 25 PoPs, 45 links,
/// unit weights.
[[nodiscard]] graph::Graph teleglobe();

/// Parameterised two-tier ISP for scaling studies (ablation A6): a backbone
/// ring of `core_size` PoPs thickened with non-crossing chords, plus
/// `access_pops` access PoPs, each dual-homed to two adjacent backbone nodes.
/// By construction the result is planar and 2-edge-connected at every size,
/// so PR's full guarantee applies and measurements isolate the effect of
/// scale.  Deterministic in `rng`.
[[nodiscard]] graph::Graph synthetic_isp(std::size_t core_size,
                                         std::size_t access_pops, graph::Rng& rng);

}  // namespace pr::topo
