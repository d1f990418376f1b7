"""DET003 positive fixture: set iteration reaching the scheduler through
the reserve-now / push-later entry points."""


def reserve_wakeups(sim, overhearers, slots):
    for node_id in set(overhearers):
        slots[node_id] = sim.reserve_seq()


def push_wakeups(sim, slots, until, wake):
    for node_id in slots.keys():
        sim.schedule_reserved(until, slots[node_id], wake, node_id)
