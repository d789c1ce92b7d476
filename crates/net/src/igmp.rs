//! IGMPv2 messages (RFC 2236).
//!
//! Elmo tenants run unmodified applications that signal group membership
//! with standard IGMP (paper §1, §6: "its use of source-routing stays
//! internal to the provider with tenants issuing standard IP multicast
//! data packets"). The hypervisor switch intercepts these messages at the
//! virtual edge and translates them into controller API calls — no IGMP
//! ever reaches the physical network, which is precisely how Elmo avoids
//! multicast's "chatty control plane" in the fabric.

use std::net::Ipv4Addr;

use crate::{internet_checksum, Error, Result};

/// IGMPv2 message types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IgmpType {
    /// General or group-specific membership query (0x11).
    MembershipQuery,
    /// IGMPv2 membership report — a join (0x16).
    MembershipReport,
    /// Leave group (0x17).
    LeaveGroup,
    /// IGMPv1 report, accepted for compatibility (0x12).
    V1MembershipReport,
}

impl IgmpType {
    fn from_wire(v: u8) -> Option<IgmpType> {
        match v {
            0x11 => Some(IgmpType::MembershipQuery),
            0x12 => Some(IgmpType::V1MembershipReport),
            0x16 => Some(IgmpType::MembershipReport),
            0x17 => Some(IgmpType::LeaveGroup),
            _ => None,
        }
    }

    fn to_wire(self) -> u8 {
        match self {
            IgmpType::MembershipQuery => 0x11,
            IgmpType::V1MembershipReport => 0x12,
            IgmpType::MembershipReport => 0x16,
            IgmpType::LeaveGroup => 0x17,
        }
    }
}

/// Length of an IGMPv2 message.
pub const MESSAGE_LEN: usize = 8;

/// A zero-copy view of an IGMPv2 message.
#[derive(Clone, Debug)]
pub struct IgmpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> IgmpPacket<T> {
    /// Wrap a buffer without checks.
    pub fn new_unchecked(buffer: T) -> IgmpPacket<T> {
        IgmpPacket { buffer }
    }

    /// Wrap a buffer, verifying length and checksum.
    pub fn new_checked(buffer: T) -> Result<IgmpPacket<T>> {
        if buffer.as_ref().len() < MESSAGE_LEN {
            return Err(Error::Truncated);
        }
        let p = IgmpPacket { buffer };
        if internet_checksum(&p.buffer.as_ref()[..MESSAGE_LEN]) != 0 {
            return Err(Error::Checksum);
        }
        Ok(p)
    }

    /// Message type byte (may be an unknown type; see [`IgmpRepr::parse`]).
    pub fn type_byte(&self) -> u8 {
        self.buffer.as_ref()[0]
    }

    /// Max response time, in tenths of a second (queries only).
    pub fn max_resp_time(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// The group address (0.0.0.0 in general queries).
    pub fn group(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[4], d[5], d[6], d[7])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> IgmpPacket<T> {
    /// Set all fields and compute the checksum.
    pub fn fill(&mut self, t: IgmpType, max_resp_time: u8, group: Ipv4Addr) {
        let d = self.buffer.as_mut();
        d[0] = t.to_wire();
        d[1] = max_resp_time;
        d[2] = 0;
        d[3] = 0;
        d[4..8].copy_from_slice(&group.octets());
        let c = internet_checksum(&d[..MESSAGE_LEN]);
        d[2..4].copy_from_slice(&c.to_be_bytes());
    }
}

/// High-level representation of an IGMPv2 message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IgmpRepr {
    pub kind: IgmpType,
    pub max_resp_time: u8,
    pub group: Ipv4Addr,
}

impl IgmpRepr {
    /// A join (membership report) for `group`.
    pub fn join(group: Ipv4Addr) -> IgmpRepr {
        IgmpRepr {
            kind: IgmpType::MembershipReport,
            max_resp_time: 0,
            group,
        }
    }

    /// A leave message for `group`.
    pub fn leave(group: Ipv4Addr) -> IgmpRepr {
        IgmpRepr {
            kind: IgmpType::LeaveGroup,
            max_resp_time: 0,
            group,
        }
    }

    /// Parse a checked packet.
    pub fn parse<T: AsRef<[u8]>>(packet: &IgmpPacket<T>) -> Result<IgmpRepr> {
        let kind = IgmpType::from_wire(packet.type_byte()).ok_or(Error::Malformed)?;
        Ok(IgmpRepr {
            kind,
            max_resp_time: packet.max_resp_time(),
            group: packet.group(),
        })
    }

    /// Emit into a packet view (checksum included).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut IgmpPacket<T>) {
        packet.fill(self.kind, self.max_resp_time, self.group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_join_and_leave() {
        for repr in [
            IgmpRepr::join(Ipv4Addr::new(225, 1, 2, 3)),
            IgmpRepr::leave(Ipv4Addr::new(239, 9, 9, 9)),
        ] {
            let mut buf = [0u8; MESSAGE_LEN];
            let mut p = IgmpPacket::new_unchecked(&mut buf[..]);
            repr.emit(&mut p);
            let p = IgmpPacket::new_checked(&buf[..]).expect("valid");
            assert_eq!(IgmpRepr::parse(&p).expect("parses"), repr);
        }
    }

    #[test]
    fn checksum_is_validated() {
        let mut buf = [0u8; MESSAGE_LEN];
        let mut p = IgmpPacket::new_unchecked(&mut buf[..]);
        IgmpRepr::join(Ipv4Addr::new(225, 0, 0, 1)).emit(&mut p);
        buf[5] ^= 0x40;
        assert_eq!(
            IgmpPacket::new_checked(&buf[..]).unwrap_err(),
            Error::Checksum
        );
    }

    #[test]
    fn unknown_type_is_malformed() {
        let mut buf = [0u8; MESSAGE_LEN];
        buf[0] = 0x42;
        let c = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&c.to_be_bytes());
        let p = IgmpPacket::new_checked(&buf[..]).expect("checksum fine");
        assert_eq!(IgmpRepr::parse(&p).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_is_rejected() {
        assert_eq!(
            IgmpPacket::new_checked(&[0u8; 7][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn query_fields() {
        let mut buf = [0u8; MESSAGE_LEN];
        let mut p = IgmpPacket::new_unchecked(&mut buf[..]);
        IgmpRepr {
            kind: IgmpType::MembershipQuery,
            max_resp_time: 100,
            group: Ipv4Addr::UNSPECIFIED,
        }
        .emit(&mut p);
        let p = IgmpPacket::new_checked(&buf[..]).expect("valid");
        assert_eq!(p.max_resp_time(), 100);
        assert_eq!(p.group(), Ipv4Addr::UNSPECIFIED);
    }
}
