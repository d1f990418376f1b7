"""DET003 suppression fixture for the reserve-now / push-later entry points."""


def push_wakeups(sim, slots, until, wake):
    # Every sequence number was reserved (in sorted order) beforehand, so
    # the order of the pushes cannot change the order of the events.
    for node_id in slots.keys():  # repro-lint: disable=DET003
        sim.schedule_reserved(until, slots[node_id], wake, node_id)
