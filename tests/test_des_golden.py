"""Golden DES outputs for the paths perfbench's pinned summaries miss.

perfbench pins SS-SPST-E and flooding on its own seeds.  These pins cover
the rest of the packet-level simulator: the on-demand baselines (MAODV,
ODMRP), the farthest-node metric (SS-SPST-F), a k = 3 SS-SPST-E run, and
battery depletion in the middle of a reception batch.  The values were
computed with one kernel event per (frame, receiver) reception; batching
a transmission's receptions into one end-of-airtime event must reproduce
them bit for bit (see ``docs/des.md``).  ``events_executed`` is not
pinned here: it counts kernel events, not simulated behaviour.
"""

from __future__ import annotations

import pytest

from repro.experiments import lifetime
from repro.experiments.config import ScenarioConfig
from repro.experiments.lifetime import run_lifetime
from repro.experiments.runner import build_network, run_scenario
from repro.net.node import Node

GOLDEN = {
    "maodv": {
        "pdr": 0.8334736842105264,
        "energy_per_packet_mj": 93.7804568830502,
        "avg_delay_ms": 25.916782240014555,
        "control_overhead": 0.0196822114170245,
        "unavailability": 0.02631578947368421,
        "data_originated": 250,
        "data_delivered": 3959,
        "total_energy_j": 371.27682879999577,
        "control_bytes_tx": 39896,
        "data_bytes_tx": 2553344,
        "duplicates_suppressed": 0,
        "frames_sent": 7080,
        "frames_collided": 18751,
        "parent_changes": 0,
    },
    "odmrp": {
        "pdr": 0.9713684210526315,
        "energy_per_packet_mj": 83.17265713047215,
        "avg_delay_ms": 14.85766752095591,
        "control_overhead": 0.16733379388816644,
        "unavailability": 0.001644736842105263,
        "data_originated": 250,
        "data_delivered": 4614,
        "total_energy_j": 383.7586399999985,
        "control_bytes_tx": 395304,
        "data_bytes_tx": 2330624,
        "duplicates_suppressed": 0,
        "frames_sent": 5896,
        "frames_collided": 25013,
        "parent_changes": 0,
    },
    "ss-spst-f": {
        "pdr": 0.8271578947368421,
        "energy_per_packet_mj": 25.400897673648366,
        "avg_delay_ms": 18.30832574463113,
        "control_overhead": 0.016817057457368285,
        "unavailability": 0.049342105263157895,
        "data_originated": 250,
        "data_delivered": 3929,
        "total_energy_j": 99.80012695976443,
        "control_bytes_tx": 33830,
        "data_bytes_tx": 931840,
        "duplicates_suppressed": 0,
        "frames_sent": 2815,
        "frames_collided": 1920,
        "parent_changes": 194,
    },
}


def _fingerprint(r):
    out = dict(r.summary.as_dict())
    out.update(
        frames_sent=r.frames_sent,
        frames_collided=r.frames_collided,
        parent_changes=r.parent_changes,
    )
    return out


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_protocol_summary_unchanged(protocol):
    r = run_scenario(
        ScenarioConfig.quick(protocol=protocol, seed=5, sim_time=40.0)
    )
    assert _fingerprint(r) == GOLDEN[protocol]


def test_k3_ss_spst_e_summary_unchanged():
    r = run_scenario(
        ScenarioConfig.quick(
            protocol="ss-spst-e", seed=5, sim_time=40.0, group_count=3
        )
    )
    assert _fingerprint(r) == {
        "pdr": 0.5630877192982456,
        "energy_per_packet_mj": 29.753376332709745,
        "avg_delay_ms": 19.796346761174043,
        "control_overhead": 0.0384167322251994,
        "unavailability": 0.2225877192982456,
        "data_originated": 750,
        "data_delivered": 8024,
        "total_energy_j": 238.741091693663,
        "control_bytes_tx": 157827,
        "data_bytes_tx": 2643968,
        "duplicates_suppressed": 0,
        "frames_sent": 8159,
        "frames_collided": 7560,
        "parent_changes": 445,
    }
    assert r.fairness_jain == 0.9702653054501497
    assert r.group_pdr_min == 0.4513684210526316


def test_flooding_deaths_mid_batch_unchanged():
    """Every non-source node's battery runs dry within 0.3 s of flooding
    and kills it; nodes that run dry at the same instant do so inside one
    end-of-airtime batch, and deliveries stop with the dead receivers."""
    lt = run_lifetime(
        ScenarioConfig.quick(protocol="flooding", seed=5, sim_time=12.0),
        battery_j=0.15,
    )
    assert lt.deaths == [
        8.16447483782911, 8.171405145473715, 8.173453145473715,
        8.173875016028052, 8.17795510200754, 8.17795510200754,
        8.178150965969317, 8.178150965969317, 8.178822596503498,
        8.182525214688608, 8.193911510611395, 8.194138240856685,
        8.201842696145492, 8.203890696145493, 8.203890696145493,
        8.216522680930261, 8.261095630151896, 8.26133107309245,
        8.26337907309245, 8.264053158418863, 8.268375264561604,
        8.26944958568122, 8.271550423430154, 8.273598423430155,
        8.273844022162455, 8.273968551820564, 8.274845369772567,
        8.27564752206759, 8.276256587475315, 8.278446198789098,
        8.27874468224873, 8.279843911448394, 8.281648335716003,
        8.28328415343694, 8.2867782459259, 8.288521392946315,
        8.291245523946529, 8.293839072820647, 8.295351159003017,
        8.397997584190355, 8.398347249647141, 8.401174016651478,
    ]
    assert len(set(lt.deaths)) < len(lt.deaths)  # same-batch deaths
    assert lt.first_death_t == lt.deaths[0]
    assert (lt.delivered, lt.pdr) == (51, 0.08388157894736842)


def test_flooding_battery_kills_receivers_mid_batch_unchanged(monkeypatch):
    """``run_lifetime``'s batteries kill their node: every non-source node
    runs dry within 0.3 s of flooding, a receiver that dies while one
    batch completes is skipped by every later batch, and its agent stops.
    The network ``run_lifetime`` builds and the order in which its nodes
    die are captured around the run."""
    built = []

    def build(config):
        built.append(build_network(config))
        return built[-1]

    died = []
    die = Node._die

    def recording_die(node):
        if node.alive:
            died.append(node.id)
        die(node)

    monkeypatch.setattr(lifetime, "build_network", build)
    monkeypatch.setattr(Node, "_die", recording_die)
    lt = run_lifetime(
        ScenarioConfig.quick(protocol="flooding", seed=5, sim_time=12.0),
        battery_j=0.15,
    )
    ((_, network),) = built
    assert (lt.delivered, lt.pdr) == (51, 0.08388157894736842)
    assert lt.first_death_t == 8.16447483782911
    assert network.hub.summary(network.total_energy()).as_dict() == {
        "pdr": 0.08388157894736842,
        "energy_per_packet_mj": 167.32159999999996,
        "avg_delay_ms": 12.878538858784923,
        "control_overhead": 0.0,
        "unavailability": 0.5,
        "data_originated": 32,
        "data_delivered": 51,
        "total_energy_j": 8.533401599999998,
        "control_bytes_tx": 0,
        "data_bytes_tx": 81408,
        "duplicates_suppressed": 0,
    }
    stats = network.medium.stats
    assert (
        stats.frames_sent, stats.receptions_total,
        stats.frames_delivered, stats.frames_collided,
    ) == (159, 1551, 958, 593)
    assert sum(node.alive for node in network.nodes) == 8
    assert list(zip(lt.deaths, died, strict=True)) == [
        (8.16447483782911, 3), (8.171405145473715, 15), (8.173453145473715, 17),
        (8.173875016028052, 49), (8.17795510200754, 36), (8.17795510200754, 40),
        (8.178150965969317, 18), (8.178150965969317, 19), (8.178822596503498, 31),
        (8.182525214688608, 12), (8.193911510611395, 29), (8.194138240856685, 11),
        (8.201842696145492, 26), (8.203890696145493, 10), (8.203890696145493, 32),
        (8.216522680930261, 1), (8.261095630151896, 48), (8.26133107309245, 47),
        (8.26337907309245, 13), (8.264053158418863, 42), (8.268375264561604, 46),
        (8.26944958568122, 23), (8.271550423430154, 22), (8.273598423430155, 8),
        (8.273844022162455, 37), (8.273968551820564, 9), (8.274845369772567, 4),
        (8.27564752206759, 33), (8.276256587475315, 34), (8.278446198789098, 24),
        (8.27874468224873, 39), (8.279843911448394, 25), (8.281648335716003, 43),
        (8.28328415343694, 20), (8.2867782459259, 28), (8.288521392946315, 30),
        (8.291245523946529, 6), (8.293839072820647, 38), (8.295351159003017, 16),
        (8.397997584190355, 35), (8.398347249647141, 44), (8.401174016651478, 41),
    ]
