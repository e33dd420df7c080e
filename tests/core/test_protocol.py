"""XenLoop control-message wire formats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.protocol import (
    Announce,
    ChannelAck,
    ConnectRequest,
    CreateChannel,
    parse_message,
)
from repro.net.addr import MacAddr

_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**48 - 1).map(MacAddr),
    ),
    max_size=30,
)


class TestRoundtrips:
    def test_announce(self):
        msg = Announce(0, [(1, MacAddr(0x163E000001)), (2, MacAddr(0x163E000002))])
        back = parse_message(msg.to_bytes())
        assert isinstance(back, Announce)
        assert back.sender_domid == 0
        assert back.entries == msg.entries

    def test_announce_empty(self):
        back = parse_message(Announce(0, []).to_bytes())
        assert back.entries == []

    def test_connect_request(self):
        msg = ConnectRequest(7, MacAddr("00:16:3e:00:00:07"))
        back = parse_message(msg.to_bytes())
        assert isinstance(back, ConnectRequest)
        assert back.sender_domid == 7
        assert back.sender_mac == msg.sender_mac

    def test_create_channel(self):
        msg = CreateChannel(1, gref_out=11, gref_in=22, evtchn_port=3)
        back = parse_message(msg.to_bytes())
        assert isinstance(back, CreateChannel)
        assert (back.gref_out, back.gref_in, back.evtchn_port) == (11, 22, 3)

    def test_channel_ack(self):
        back = parse_message(ChannelAck(9).to_bytes())
        assert isinstance(back, ChannelAck)
        assert back.sender_domid == 9

    @given(entries=_entries)
    def test_announce_roundtrip_property(self, entries):
        back = parse_message(Announce(0, entries).to_bytes())
        assert back.entries == entries


class TestMalformed:
    def test_short_message(self):
        with pytest.raises(ValueError):
            parse_message(b"\x00")

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            parse_message(b"\x00\x63" + b"\x00" * 8)
