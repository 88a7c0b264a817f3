//! The MinC type system.
//!
//! MinC has the C-like scalar types `char` (signed 8-bit), `int` (signed
//! 32-bit), `unsigned` (unsigned 32-bit), `long` (signed 64-bit), `double`
//! (IEEE 754 binary64), pointers, fixed-size arrays, and named structs.
//! Signed integer overflow is undefined behavior; unsigned arithmetic wraps.

use std::fmt;

/// A MinC type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` — only valid as a function return type or behind a pointer.
    Void,
    /// Signed 8-bit integer.
    Char,
    /// Signed 32-bit integer.
    Int,
    /// Unsigned 32-bit integer (wrapping arithmetic is *defined*).
    UInt,
    /// Signed 64-bit integer.
    Long,
    /// IEEE 754 double.
    Double,
    /// Pointer to another type.
    Ptr(Box<Type>),
    /// Fixed-size array.
    Array(Box<Type>, u64),
    /// Named struct; resolved against the program's struct table.
    Struct(String),
}

impl Type {
    /// Pointer to `self`.
    pub fn ptr_to(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// True for `char`, `int`, `unsigned`, `long`.
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Char | Type::Int | Type::UInt | Type::Long)
    }

    /// True for signed integer types (overflow is UB).
    pub fn is_signed_integer(&self) -> bool {
        matches!(self, Type::Char | Type::Int | Type::Long)
    }

    /// True for any arithmetic type (integers and `double`).
    pub fn is_arithmetic(&self) -> bool {
        self.is_integer() || matches!(self, Type::Double)
    }

    /// True for pointer types.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// True for types usable in a boolean context (condition).
    pub fn is_scalar(&self) -> bool {
        self.is_arithmetic() || self.is_pointer()
    }

    /// The pointee of a pointer, or element type of an array.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Array-to-pointer decay: `T[N]` becomes `T*`; other types unchanged.
    pub fn decay(&self) -> Type {
        match self {
            Type::Array(t, _) => Type::Ptr(t.clone()),
            other => other.clone(),
        }
    }

    /// Size in bytes of a scalar on the (single) MinC target, which is
    /// also its alignment. Array and struct layouts are the compiler's
    /// (`minc_compile::layout`), since struct padding is
    /// implementation-defined.
    ///
    /// # Panics
    ///
    /// Panics on `void`, arrays and structs.
    pub fn scalar_size(&self) -> u64 {
        match self {
            Type::Char => 1,
            Type::Int | Type::UInt => 4,
            Type::Long | Type::Double | Type::Ptr(_) => 8,
            Type::Void => panic!("void has no size"),
            Type::Array(..) | Type::Struct(_) => panic!("`{self}` is not a scalar"),
        }
    }

    /// The type that results from the usual arithmetic conversions between
    /// two arithmetic operands (C11 §6.3.1.8, restricted to MinC's types).
    pub fn usual_arithmetic(lhs: &Type, rhs: &Type) -> Type {
        if matches!(lhs, Type::Double) || matches!(rhs, Type::Double) {
            Type::Double
        } else if matches!(lhs, Type::Long) || matches!(rhs, Type::Long) {
            Type::Long
        } else if matches!(lhs, Type::UInt) || matches!(rhs, Type::UInt) {
            Type::UInt
        } else {
            Type::Int
        }
    }

    /// Integer promotion: `char` promotes to `int`; other types unchanged.
    pub fn promote(&self) -> Type {
        match self {
            Type::Char => Type::Int,
            other => other.clone(),
        }
    }

    /// Bit width for integer types.
    pub fn bits(&self) -> Option<u32> {
        match self {
            Type::Char => Some(8),
            Type::Int | Type::UInt => Some(32),
            Type::Long => Some(64),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Char => write!(f, "char"),
            Type::Int => write!(f, "int"),
            Type::UInt => write!(f, "unsigned"),
            Type::Long => write!(f, "long"),
            Type::Double => write!(f, "double"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(name) => write!(f, "struct {name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_alignment() {
        assert_eq!(Type::Char.scalar_size(), 1);
        assert_eq!(Type::Int.scalar_size(), 4);
        assert_eq!(Type::UInt.scalar_size(), 4);
        assert_eq!(Type::Long.scalar_size(), 8);
        assert_eq!(Type::Double.scalar_size(), 8);
        assert_eq!(Type::Int.ptr_to().scalar_size(), 8);
    }

    #[test]
    fn usual_arithmetic_conversions() {
        use Type::*;
        assert_eq!(Type::usual_arithmetic(&Int, &Double), Double);
        assert_eq!(Type::usual_arithmetic(&Int, &Long), Long);
        assert_eq!(Type::usual_arithmetic(&Int, &UInt), UInt);
        assert_eq!(Type::usual_arithmetic(&Char, &Char), Int);
    }

    #[test]
    fn decay_converts_arrays() {
        let arr = Type::Array(Box::new(Type::Char), 16);
        assert_eq!(arr.decay(), Type::Char.ptr_to());
        assert_eq!(Type::Int.decay(), Type::Int);
    }

    #[test]
    fn signedness_classification() {
        assert!(Type::Int.is_signed_integer());
        assert!(Type::Char.is_signed_integer());
        assert!(!Type::UInt.is_signed_integer());
        assert!(Type::UInt.is_integer());
        assert!(!Type::Double.is_integer());
        assert!(Type::Double.is_arithmetic());
    }

    #[test]
    fn display_round_trips_common_types() {
        assert_eq!(Type::Int.ptr_to().to_string(), "int*");
        assert_eq!(Type::Struct("pkt".into()).to_string(), "struct pkt");
    }
}
