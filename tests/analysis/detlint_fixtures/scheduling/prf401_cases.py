# detlint PRF401 fixture: park-wide scans inside tick-path functions.
# The profile refactor moved tick-path availability questions onto
# Gantt's ResourceProfile; a loop over the park's node/timeline
# collections in these functions reintroduces the O(nodes) rescans.


class FakeScheduler:
    def _schedule_pass(self, now):
        for uid in self.db.node_uids():  # EXPECT(PRF401)
            self.touch(uid)
        busy = [u for u in self.machines]  # EXPECT(PRF401)
        return busy

    def grow_candidates(self, job):
        return [u for u in sorted(self.machines.machines)  # EXPECT(PRF401)
                if self.ok(u)]

    def elastic_tick(self, oar):
        for node in self.park.nodes:  # EXPECT(PRF401)
            node.poke()
        for tl in self.gantt.timelines.values():  # EXPECT(PRF401)
            tl.scan()

    def availability(self, cell):
        return sum(1 for u in self.db.alive_nodes())  # EXPECT(PRF401)

    def _negotiate(self, oar, queued):
        # OK: iterating the profile's answer, not the park.
        for uid in oar.gantt.free_uids(self.mask, 0.0, 1.0):
            self.take(uid)

    def _free_alive(self, uids):
        # OK: a caller-supplied candidate list, not the whole park.
        return sum(1 for u in uids if self.ok(u))

    def refresh_everything(self):
        # OK: not a tick-path function (runs once at startup).
        for uid in self.db.node_uids():
            self.touch(uid)
