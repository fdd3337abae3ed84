# detlint PRF401 fixture: park-wide scans inside tick-path functions.
# The profile refactor moved tick-path availability questions onto
# Gantt's ResourceProfile; a loop over the park's node/timeline
# collections in these functions reintroduces the O(nodes) rescans, and
# so does asking each node for its liveness inside a loop instead of
# ANDing with the park's alive mask.  A replan pass inside a tick-path
# loop re-places the queue once per iteration instead of once per tick.


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


class LivenessScheduler:
    def _try_start(self, job, generation):
        dead = [u for u in job.assigned_nodes
                if self.node_state(u) != "Alive"]  # EXPECT(PRF401)
        return dead

    def evict_dead_nodes(self, job):
        for uid in job.assignment[0]:
            if not self.machines[uid].available:  # EXPECT(PRF401)
                self.drop(uid)

    def grow(self, job, nodes):
        for node in nodes:
            if node.state is not PowerState.ON:  # EXPECT(PRF401)
                raise ValueError(node)

    def cluster_states(self):
        return {c: sum(1 for u in uids
                       if self.park[u].state)  # EXPECT(PRF401)
                for c, uids in self.groups}

    def utilization(self):
        n = 0
        while self.more():
            n += self.oar.node_state(self.next()) == "Alive"  # EXPECT(PRF401)
        return n


class MaskScheduler:
    def _try_start(self, job, generation):
        # OK: one mask test answers "is any reserved node dead?".
        return self.gantt.mask_for(job.assigned_nodes) & ~self.machines.alive_mask

    def grow(self, job, nodes):
        # OK: the job's own state, and bit tests on the alive mask.
        for uid in nodes:
            if job.state == JobState.RUNNING and self.alive >> self.bit(uid) & 1:
                self.take(uid)

    def utilization(self):
        # OK: a liveness read outside any loop.
        return self.machines["a-1"].available

    def refresh_everything(self):
        # OK: not a tick-path function.
        return [m for m in self.nodes_of(0) if m.available]


class TickTableScheduler:
    def _negotiate(self, oar, queued):
        for job in queued:
            for donor in _running_malleable(oar):  # EXPECT(PRF401)
                room = donor.width - self._feasible_floor(donor, 0.0)  # EXPECT(PRF401)
                self.offer(job, room)

    def _expand(self, oar):
        while True:
            for job in oar.running_jobs():  # EXPECT(PRF401)
                self.grow(job)

    def elastic_tick(self, oar):
        return [self.floor_of(j, oar.running_jobs())  # EXPECT(PRF401)
                for j in self.queued]


class OncePerTickScheduler:
    def _negotiate(self, oar, queued):
        # OK: the donor table is built once, outside the loop.
        donors = self._donor_table(oar, 0.0)
        for job in queued:
            self.offer(job, donors)

    def _expand(self, oar):
        # OK: one running-job list per tick, iterated.
        for job in _running_malleable(oar):
            self.grow(job)

    def _donor_table(self, oar, now):
        # OK: not a tick-path function; called once per tick.
        return [self._feasible_floor(d, now) for d in _running_malleable(oar)]

    def utilization(self):
        # OK: the running list is asked for once.
        return sum(len(j.assignment) for j in self.oar.running_jobs())


class ScanningTickView:
    def due_cells(self):
        now = self.now
        return [c for c in self.scheduler.cells  # EXPECT(PRF401)
                if not c.in_flight and c.next_attempt_at <= now]

    def on_tick(self, view):
        for cell in view.scheduler.cells:  # EXPECT(PRF401)
            if cell.next_attempt_at <= view.now:
                view.launch(cell)


class IndexedTickView:
    def due_cells(self):
        # OK: the due index's runs, merged by one sort; no cell scan.
        scheduler = self.scheduler
        scheduler._drain(self.now)
        return list(map(scheduler.cells.__getitem__,
                        sorted(chain.from_iterable(scheduler._runs))))

    def on_tick(self, view):
        # OK: indexing one cell by id is not a scan.
        cells = view.scheduler.cells
        for run in view.due_runs()["nancy"].values():
            view.launch(cells[run[0]])

    def stats(self):
        # OK: not a tick-path function.
        return sum(1 for c in self.cells if c.in_flight)


class ReplanPerAgreementScheduler:
    def _negotiate(self, oar, queued):
        donors = self._donor_table(oar, 0.0)
        for job in queued:
            freed = 0
            for donor, room, dmask in donors:
                freed |= oar.shrink(donor, room, replan=False)
            oar.replan_now(freed)  # EXPECT(PRF401)

    def _reclaim(self, oar, running):
        for job in running:
            oar.replan_now(oar.shrink(job, 1, replan=False))  # EXPECT(PRF401)

    def elastic_tick(self, oar):
        while self.pressure(oar):
            self.settle(oar)
            oar.replan_now()  # EXPECT(PRF401)


class ReplanOncePerTickScheduler:
    def _negotiate(self, oar, queued):
        # OK: the round returns what it freed; nothing is re-placed here.
        donors = self._donor_table(oar, 0.0)
        freed = 0
        for job in queued:
            for entry in donors:
                freed |= oar.shrink(entry[0], entry[1], replan=False)
        return freed

    def elastic_tick(self, oar):
        # OK: one replan pass, after the loops, over everything freed.
        freed = self._reclaim(oar) | self._negotiate(oar, self.queue)
        if freed:
            oar.replan_now(freed)
        for job in self.growers:
            self.grow(job)

    def rebalance(self, oar):
        # OK: not a tick-path function.
        for mask in self.masks:
            oar.replan_now(mask)
