"""DET003 clean fixture: reservations made and pushed in sorted order."""


def reserve_wakeups(sim, overhearers, slots):
    for node_id in sorted(set(overhearers)):
        slots[node_id] = sim.reserve_seq()


def push_wakeups(sim, slots, until, wake):
    for node_id in sorted(slots):
        sim.schedule_reserved(until, slots[node_id], wake, node_id)
